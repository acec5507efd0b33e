//! Local-search post-optimization (an extension beyond the paper).
//!
//! The decomposed algorithms fix each user's schedule in one pass and
//! never revisit it; the `+RG` pass only *adds* assignments. Local
//! search closes the remaining gap with two improving move families,
//! applied until a fixpoint (or a round cap):
//!
//! * **transfer** — move an event from its current attendee to a
//!   non-attendee with strictly higher utility (capacity stays
//!   satisfied: one leaves, one enters);
//! * **swap** — within one user's schedule, replace an arranged event
//!   by a strictly better-by-utility unarranged event that fits the
//!   schedule once the old one is gone.
//!
//! Every move strictly increases `Ω`, so termination is guaranteed
//! (finitely many plannings, strictly monotone objective); each round is
//! `O(|V| |U| · |S|)`. Feasibility is preserved by construction — moves
//! are validated with the same checks as `Planning::assign`.
//!
//! Rounds are **evaluate-then-apply**: every candidate move is scored
//! in parallel against a snapshot of the planning (pure reads), then
//! the proposals are applied on the driving thread in a fixed order,
//! each revalidated against the now-mutating planning and skipped if an
//! earlier application invalidated it. The applied sequence is a pure
//! function of the snapshot, so the result is bit-identical at every
//! thread count.

use crate::{GuardedSolve, Solver};
use usep_core::{EventId, FlatInstance, Instance, Planning, UserId};
use usep_guard::Guard;
use usep_par::{current_threads, par_map};
use usep_trace::Probe;

/// Improves `planning` in place until no transfer/swap move helps or
/// `max_rounds` passes complete. Returns the number of applied moves.
pub fn improve(inst: &Instance, planning: &mut Planning, max_rounds: usize) -> usize {
    let flat = inst.freeze();
    let threads = current_threads();
    let mut applied = 0;
    for _ in 0..max_rounds {
        let before = applied;
        applied += transfer_round(inst, &flat, planning, threads);
        applied += swap_round(inst, &flat, planning, threads);
        if applied == before {
            break; // fixpoint
        }
    }
    applied
}

/// One pass of transfer moves. Every assigned `(v, u_from)` pair is
/// scored in parallel: the best user `u_to` with `μ(v, u_to) >
/// μ(v, u_from)` that can host `v` in the snapshot. Proposals are then
/// applied in `(v, u_from)` order, each re-checked against the current
/// planning (an earlier transfer may have filled `u_to`'s schedule).
fn transfer_round(
    inst: &Instance,
    flat: &FlatInstance,
    planning: &mut Planning,
    threads: usize,
) -> usize {
    let mut pairs: Vec<(EventId, UserId)> =
        planning.assignments().map(|(u, v)| (v, u)).collect();
    pairs.sort_unstable();
    let snapshot: &Planning = planning;
    let proposals = par_map(threads, &pairs, |_, &(v, u_from)| {
        let mu_from = flat.mu(v, u_from);
        let mut best: Option<(UserId, f64)> = None;
        for u_to in inst.user_ids() {
            if u_to == u_from {
                continue;
            }
            let mu_to = flat.mu(v, u_to);
            if mu_to <= mu_from {
                continue;
            }
            if best.is_some_and(|(_, m)| mu_to <= m) {
                continue;
            }
            if snapshot.schedule(u_to).can_insert(flat, u_to, v) {
                best = Some((u_to, mu_to));
            }
        }
        best.map(|(u_to, _)| u_to)
    });
    let mut moves = 0;
    for (k, proposal) in proposals.into_iter().enumerate() {
        let Some(u_to) = proposal else { continue };
        let (v, u_from) = pairs[k];
        // revalidate against the mutated planning; a skipped proposal is
        // simply re-found (or not) next round
        if !planning.schedule(u_to).can_insert(flat, u_to, v) {
            continue;
        }
        assert!(planning.unassign(u_from, v));
        planning.assign(inst, u_to, v).expect("transfer target validated");
        moves += 1;
    }
    moves
}

/// One pass of swap moves. Each user's best single swap — replace an
/// arranged `v_out` with an unarranged, spare-capacity `v_in` of
/// strictly higher utility that fits once `v_out` is gone — is found in
/// parallel on a cloned schedule (the trial removal never touches the
/// shared snapshot), then the proposals are applied in user-id order,
/// re-checking capacity and fit (an earlier user's swap may have taken
/// the last slot of `v_in`).
fn swap_round(
    inst: &Instance,
    flat: &FlatInstance,
    planning: &mut Planning,
    threads: usize,
) -> usize {
    let users: Vec<UserId> = inst.user_ids().collect();
    let snapshot: &Planning = planning;
    let proposals = par_map(threads, &users, |_, &u| best_swap(inst, flat, snapshot, u));
    let mut moves = 0;
    for (k, proposal) in proposals.into_iter().enumerate() {
        let Some((v_out, v_in)) = proposal else { continue };
        let u = users[k];
        if planning.remaining_capacity(inst, v_in) == 0 {
            continue;
        }
        assert!(planning.unassign(u, v_out));
        if planning.schedule(u).can_insert(flat, u, v_in) {
            planning.assign(inst, u, v_in).expect("swap target validated");
            moves += 1;
        } else {
            planning.assign(inst, u, v_out).expect("reinsertion of removed event");
        }
    }
    moves
}

/// The best swap for `u` against the snapshot: maximal utility gain,
/// ties broken by smallest `(v_out, v_in)` so the choice is unique.
fn best_swap(
    inst: &Instance,
    flat: &FlatInstance,
    snapshot: &Planning,
    u: UserId,
) -> Option<(EventId, EventId)> {
    let mut best: Option<(EventId, EventId, f64)> = None;
    for &v_out in snapshot.schedule(u).events() {
        let mu_out = flat.mu(v_out, u);
        let mut trial = snapshot.schedule(u).clone();
        trial.remove(v_out);
        for v_in in inst.event_ids() {
            if v_in == v_out || trial.contains(v_in) {
                continue;
            }
            let mu_in = flat.mu(v_in, u);
            if mu_in <= mu_out || snapshot.remaining_capacity(inst, v_in) == 0 {
                continue;
            }
            let gain = mu_in - mu_out;
            if best.is_some_and(|(bo, bi, bg)| {
                gain < bg || (gain == bg && (v_out, v_in) > (bo, bi))
            }) {
                continue;
            }
            if trial.can_insert(flat, u, v_in) {
                best = Some((v_out, v_in, gain));
            }
        }
    }
    best.map(|(v_out, v_in, _)| (v_out, v_in))
}

/// Wraps any solver with a local-search post-pass.
#[derive(Clone, Copy, Debug)]
pub struct WithLocalSearch<S> {
    inner: S,
    max_rounds: usize,
}

impl<S: Solver> WithLocalSearch<S> {
    /// Wraps `inner`, running up to `max_rounds` improvement rounds
    /// after it.
    pub fn new(inner: S, max_rounds: usize) -> WithLocalSearch<S> {
        WithLocalSearch { inner, max_rounds }
    }
}

impl<S: Solver> Solver for WithLocalSearch<S> {
    fn name(&self) -> &'static str {
        "LocalSearch"
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let mut run = self.inner.solve_guarded(inst, guard, probe);
        if !guard.is_tripped() {
            improve(inst, &mut run.planning, self.max_rounds);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Algorithm, DeGreedy};
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn transfer_moves_event_to_higher_utility_user() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.3);
        b.utility(v, u1, 0.9);
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, u0, v).unwrap(); // deliberately suboptimal
        let n = improve(&inst, &mut p, 10);
        assert_eq!(n, 1);
        assert!(p.schedule(u0).is_empty());
        assert_eq!(p.schedule(u1).events(), &[v]);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn swap_replaces_event_with_better_one() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::ORIGIN, iv(5, 15)); // conflicts with v0
        let u = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v0, u, 0.3);
        b.utility(v1, u, 0.8);
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, u, v0).unwrap();
        let n = improve(&inst, &mut p, 10);
        assert_eq!(n, 1);
        assert_eq!(p.schedule(u).events(), &[v1]);
    }

    #[test]
    fn fixpoint_on_already_optimal_plannings() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.9);
        let inst = b.build().unwrap();
        let mut p = Planning::empty(&inst);
        p.assign(&inst, u0, v).unwrap();
        assert_eq!(improve(&inst, &mut p, 10), 0);
    }

    #[test]
    fn omega_is_monotone_and_feasibility_preserved_on_random_instances() {
        use usep_gen::{generate, SyntheticConfig};
        for seed in 0..10u64 {
            let inst = generate(&SyntheticConfig::tiny().with_users(25), 500 + seed);
            for a in [Algorithm::DeGreedy, Algorithm::RatioGreedy, Algorithm::DeDPO] {
                let mut p = solve(a, &inst);
                let before = p.omega(&inst);
                improve(&inst, &mut p, 5);
                assert!(p.omega(&inst) >= before - 1e-9, "{a} seed {seed} regressed");
                p.validate(&inst).unwrap();
            }
        }
    }

    #[test]
    fn local_search_sometimes_strictly_improves_degreedy() {
        use usep_gen::{generate, SyntheticConfig};
        let mut improved = 0;
        for seed in 0..20u64 {
            let inst = generate(&SyntheticConfig::tiny().with_users(25), 900 + seed);
            let mut p = solve(Algorithm::DeGreedy, &inst);
            let before = p.omega(&inst);
            improve(&inst, &mut p, 5);
            if p.omega(&inst) > before + 1e-9 {
                improved += 1;
            }
        }
        assert!(improved > 0, "local search never improved DeGreedy across 20 seeds");
    }

    #[test]
    fn wrapped_solver_is_feasible() {
        use usep_gen::{generate, SyntheticConfig};
        let inst = generate(&SyntheticConfig::tiny().with_users(20), 77);
        let s = WithLocalSearch::new(DeGreedy::new(), 4);
        let p = s.solve(&inst);
        p.validate(&inst).unwrap();
        assert!(p.omega(&inst) >= solve(Algorithm::DeGreedy, &inst).omega(&inst) - 1e-9);
    }
}
