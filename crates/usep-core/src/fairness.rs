//! Fairness measures over a planning.
//!
//! `Ω(A)` is a pure sum, so a planning can score well while leaving many
//! users with nothing — the concern that motivates the max-min variant
//! the paper cites (\[29\], bottleneck-aware arrangement). These metrics
//! quantify how evenly a planning spreads utility.

use crate::instance::Instance;
use crate::planning::Planning;
use serde::{Deserialize, Serialize};

/// Distributional fairness metrics of per-user utilities `Ω(S_u)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FairnessStats {
    /// Jain's fairness index `(Σx)² / (n · Σx²)` over **all** users
    /// (1 = perfectly even, `1/n` = one user takes everything;
    /// 0 when nobody is served).
    pub jain_index: f64,
    /// Fraction of users with at least one arranged event.
    pub served_fraction: f64,
    /// Smallest per-user utility among *served* users (0 if none).
    pub min_served: f64,
    /// Median per-user utility among served users.
    pub median_served: f64,
    /// 90th-percentile per-user utility among served users.
    pub p90_served: f64,
}

impl FairnessStats {
    /// Computes fairness metrics for `planning` on `inst`.
    pub fn compute(inst: &Instance, planning: &Planning) -> FairnessStats {
        let n = inst.num_users();
        if n == 0 {
            return FairnessStats {
                jain_index: 0.0,
                served_fraction: 0.0,
                min_served: 0.0,
                median_served: 0.0,
                p90_served: 0.0,
            };
        }
        let flat = inst.freeze();
        let utilities: Vec<f64> = inst
            .user_ids()
            .map(|u| planning.schedule(u).utility(&flat, u))
            .collect();
        let sum: f64 = utilities.iter().sum();
        let sq: f64 = utilities.iter().map(|x| x * x).sum();
        let jain = if sq > 0.0 { sum * sum / (n as f64 * sq) } else { 0.0 };

        let mut served: Vec<f64> = inst
            .user_ids()
            .filter(|&u| !planning.schedule(u).is_empty())
            .map(|u| planning.schedule(u).utility(&flat, u))
            .collect();
        served.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            if served.is_empty() {
                0.0
            } else {
                let idx = ((served.len() - 1) as f64 * p).round() as usize;
                served[idx]
            }
        };
        FairnessStats {
            jain_index: jain,
            served_fraction: served.len() as f64 / n as f64,
            min_served: served.first().copied().unwrap_or(0.0),
            median_served: pct(0.5),
            p90_served: pct(0.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::geo::Point;
    use crate::ids::{EventId, UserId};
    use crate::instance::InstanceBuilder;
    use crate::time::TimeInterval;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn two_user_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::ORIGIN, iv(0, 10));
        b.event(2, Point::ORIGIN, iv(10, 20));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        for v in 0..2 {
            b.utility(EventId(v), u0, 0.5);
            b.utility(EventId(v), u1, 0.5);
        }
        b.build().unwrap()
    }

    #[test]
    fn perfectly_even_planning_has_jain_one() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        for u in [UserId(0), UserId(1)] {
            p.assign(&inst, u, EventId(0)).unwrap();
        }
        let f = FairnessStats::compute(&inst, &p);
        assert!((f.jain_index - 1.0).abs() < 1e-12);
        assert_eq!(f.served_fraction, 1.0);
        assert!((f.min_served - 0.5).abs() < 1e-6);
    }

    #[test]
    fn one_sided_planning_has_jain_half() {
        let inst = two_user_instance();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, UserId(0), EventId(0)).unwrap();
        p.assign(&inst, UserId(0), EventId(1)).unwrap();
        let f = FairnessStats::compute(&inst, &p);
        // utilities (1.0, 0.0): Jain = 1/n = 0.5
        assert!((f.jain_index - 0.5).abs() < 1e-12);
        assert_eq!(f.served_fraction, 0.5);
    }

    #[test]
    fn empty_planning() {
        let inst = two_user_instance();
        let f = FairnessStats::compute(&inst, &Planning::empty(&inst));
        assert_eq!(f.jain_index, 0.0);
        assert_eq!(f.served_fraction, 0.0);
        assert_eq!(f.min_served, 0.0);
    }

    #[test]
    fn percentiles_among_served() {
        let mut b = InstanceBuilder::new();
        b.event(3, Point::ORIGIN, iv(0, 10));
        for _ in 0..3 {
            b.user(Point::ORIGIN, Cost::new(10));
        }
        for (u, m) in [(0u32, 0.2), (1, 0.4), (2, 0.9)] {
            b.utility(EventId(0), UserId(u), m);
        }
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        for u in 0..3 {
            p.assign(&inst, UserId(u), EventId(0)).unwrap();
        }
        let f = FairnessStats::compute(&inst, &p);
        assert!((f.min_served - 0.2).abs() < 1e-6);
        assert!((f.median_served - 0.4).abs() < 1e-6);
        assert!((f.p90_served - 0.9).abs() < 1e-6);
    }
}
