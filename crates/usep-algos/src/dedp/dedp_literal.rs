//! DeDP (Algorithms 2 + 3): the literal decomposed-DP algorithm.
//!
//! This implementation deliberately keeps the paper's original data
//! layout: a dense `μ^r` matrix over all pseudo-events × users
//! (`O(|V| |U| max c_v)` doubles), updated after every user via the Local
//! Ratio decomposition:
//!
//! * for every pseudo-event `v̂_i` in the freshly computed schedule
//!   `Ŝ_{u_r}`: `μ^{r+1}(v̂_i, u_j) ← μ^r(v̂_i, u_j) − μ^r(v̂_i, u_r)`
//!   for all `j > r`;
//! * the entire column of `u_r` is zeroed.
//!
//! The memory-vs-speed behaviour of this variant is what the paper's
//! Figures 2–3 measure as "DeDP"; use [`DeDPO`](super::DeDPO) for
//! identical plannings at a fraction of the footprint.

use super::{
    build_planning_from_holders, Candidate, DpScheduler, PseudoLayout,
    SingleScheduler,
};
use crate::{finish_guarded, GuardedSolve, Solver};
use usep_core::{EventId, Instance, UserId};
use usep_guard::Guard;
use usep_trace::{with_span, Counter, Probe};

/// DeDP (Alg. 3): ½-approximate, with the literal `μ^r` matrix.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeDP {
    _private: (),
}

impl DeDP {
    /// Creates the solver.
    pub fn new() -> DeDP {
        DeDP::default()
    }
}

impl Solver for DeDP {
    fn name(&self) -> &'static str {
        "DeDP"
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let flat = inst.freeze();
        let nu = inst.num_users();
        let layout = PseudoLayout::new(inst);
        let total = layout.total();

        // The μ^r matrix dominates DeDP's footprint; charge it against
        // the ceiling before allocating. On refusal there is no valid
        // prefix to salvage (no user has been scheduled), so the result
        // is the empty planning, truncated.
        let matrix_bytes = layout.mu_matrix_bytes(nu);
        if !guard.try_reserve(matrix_bytes) {
            let planning = build_planning_from_holders(inst, &layout, &vec![0u32; total]);
            return GuardedSolve { planning, outcome: finish_guarded(guard, probe) };
        }

        // μ^r, pseudo-major: mu_m[p * |U| + u]. Row updates (the chosen
        // pseudo-events, subtracted across all later users) are then
        // contiguous.
        probe.count(Counter::PseudoMatrixBytes, matrix_bytes as u64);
        let mut mu_m = vec![0.0f64; total * nu];
        for v in inst.event_ids() {
            for p in layout.slots(v) {
                for u in 0..nu {
                    mu_m[p * nu + u] = flat.mu(v, UserId(u as u32));
                }
            }
        }

        // step 1: Ŝ_{u_r} per user, as (slot, event) pairs in time order
        let mut hat: Vec<Vec<u32>> = Vec::with_capacity(nu);
        let mut scheduler = DpScheduler::with_guard(probe, guard);
        let order = inst.temporal().order();
        let mut cands: Vec<Candidate> = Vec::with_capacity(inst.num_events());

        probe.span_enter("decomposed.step1");
        for r in 0..nu {
            // users scheduled so far form a valid prefix: stop between
            // users when the budget runs out
            if guard.checkpoint() {
                break;
            }
            let u = UserId(r as u32);
            probe.count(Counter::CandidateRefreshUser, 1);
            // Lemma 1 prunes events whose lone round trip busts the budget
            let (round_trips, budget) = (flat.round_trip_row(u), flat.budget(u));
            cands.clear();
            for &vi in order {
                let v = EventId(vi);
                // v̂_i = argmax_k μ^r(v_{i,k}, u_r), ascending-k scan with
                // strict improvement
                let mut best_val = f64::NEG_INFINITY;
                let mut best_slot = 0usize;
                for p in layout.slots(v) {
                    let val = mu_m[p * nu + r];
                    if val > best_val {
                        best_val = val;
                        best_slot = p;
                    }
                }
                if best_val > 0.0 && round_trips[vi as usize] <= budget {
                    cands.push(Candidate { v, slot: best_slot as u32, mu: best_val });
                }
            }
            let chosen = scheduler.schedule(&flat, u, &cands);
            let mut slots = Vec::with_capacity(chosen.len());
            for &ci in &chosen {
                let p = cands[ci].slot as usize;
                let base = mu_m[p * nu + r];
                for j in (r + 1)..nu {
                    mu_m[p * nu + j] -= base;
                }
                slots.push(p as u32);
            }
            // μ^{r+1}(v_{i,k}, u_r) = 0, ∀i, k
            for p in 0..total {
                mu_m[p * nu + r] = 0.0;
            }
            hat.push(slots);
        }
        probe.span_exit("decomposed.step1");
        drop(mu_m);
        guard.release(matrix_bytes);

        // step 2: scan r = |U| .. 1, dropping pseudo-events already kept
        // by a later user — equivalently, each slot stays with its last
        // holder. `hat` may cover only a prefix of the users when the
        // guard tripped; the resolution is unchanged.
        let planning = with_span(probe, "decomposed.step2", || {
            let mut holder = vec![0u32; total];
            for (r, slots) in hat.iter().enumerate() {
                for &p in slots {
                    holder[p as usize] = r as u32 + 1;
                }
            }
            build_planning_from_holders(inst, &layout, &holder)
        });
        GuardedSolve { planning, outcome: finish_guarded(guard, probe) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeDPO;
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn dedp_equals_dedpo_on_structured_instance() {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..6i32 {
            let start = i64::from(i % 3) * 10;
            vs.push(b.event(2, Point::new(i * 3, i % 2), iv(start, start + 9)));
        }
        let mut us = Vec::new();
        for j in 0..7i32 {
            us.push(b.user(Point::new(j, 2 - j), Cost::new(40)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, ((i * 7 + j * 3) % 11) as f64 / 11.0);
            }
        }
        let inst = b.build().unwrap();
        let a = DeDP::new().solve(&inst);
        let b2 = DeDPO::new().solve(&inst);
        assert_eq!(a, b2, "DeDP and DeDPO must produce identical plannings");
        assert!(a.validate(&inst).is_ok());
    }

    #[test]
    fn steals_resolve_to_last_holder() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        let u2 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.2);
        b.utility(v, u1, 0.5);
        b.utility(v, u2, 0.9);
        let inst = b.build().unwrap();
        let p = DeDP::new().solve(&inst);
        assert!(p.schedule(u0).is_empty());
        assert!(p.schedule(u1).is_empty());
        assert_eq!(p.schedule(u2).events(), &[v]);
    }

    #[test]
    fn chain_of_steals_uses_marginal_utilities() {
        // u2's marginal gain over u1 (0.9 - 0.5 = 0.4) competes against
        // its other option
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::ORIGIN, iv(0, 10)); // conflicts with v0
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v0, u0, 0.5);
        b.utility(v1, u0, 0.1);
        b.utility(v0, u1, 0.9);
        b.utility(v1, u1, 0.45);
        let inst = b.build().unwrap();
        // u0 takes v0 (0.5 > 0.1). u1's marginal for v0 is 0.4 < 0.45 for
        // free v1, so u1 takes v1 and u0 keeps v0.
        let p = DeDP::new().solve(&inst);
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert_eq!(p.schedule(u1).events(), &[v1]);
        assert!((p.omega(&inst) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn no_users_or_no_events() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        let inst = b.build().unwrap();
        assert_eq!(DeDP::new().solve(&inst).num_assignments(), 0);

        let mut b = InstanceBuilder::new();
        b.user(Point::ORIGIN, Cost::new(5));
        let inst = b.build().unwrap();
        assert_eq!(DeDP::new().solve(&inst).num_assignments(), 0);
    }
}
