//! `DPSingle` (Algorithm 2): the utility-optimal single-user schedule.
//!
//! Costs are bounded non-negative integers, so the DP table
//! `Ω(i, T)` — the best utility of a feasible schedule ending at
//! candidate `i` with travel cost `T` spent getting there — is dense in
//! `T ∈ [0, b_u]`. Eq. (4) restricts predecessors to candidates `l ≤ l_i`
//! (those ending no later than `i` starts) and enforces the return leg
//! `T + cost(v̂_i, u) ≤ b_u` at every state, which is lossless under the
//! triangle inequality: if you cannot afford to go home from `v̂_i`, no
//! continuation can ever afford it either.
//!
//! The table is `O(|V'_r| · b_u)` — pseudo-polynomial in the budget — and
//! is reused across users: the workspace only ever zeroes the cells a run
//! actually touched, so a sparse run stays cheap.

use super::{Candidate, SingleScheduler};
use usep_core::{FlatInstance, UserId};
use usep_guard::{Guard, TruncationReason};
use usep_trace::{Counter, Probe, NOOP};

/// Upper bound on DP table cells (`|V'_r| × (b_u + 1)`); about 1.6 GiB of
/// table. Exceeding it means the instance's budgets are far outside the
/// integer scales the paper (and this reproduction) use — rescale costs.
pub(crate) const MAX_DP_CELLS: usize = 1 << 27;

/// Reusable workspace for [`dp_single`], implementing
/// [`SingleScheduler`] for the DeDP/DeDPO family.
pub(crate) struct DpScheduler<'p> {
    /// Instrumentation sink; visited/pruned cell counts are accumulated
    /// locally per run and flushed here once, so the probe never sits in
    /// the DP inner loop.
    probe: &'p dyn Probe,
    /// `omega[i * stride + t]`; all-zero between calls.
    omega: Vec<f64>,
    /// Predecessor candidate index per cell (`-1` = schedule starts here).
    /// Only read where `omega > 0`, so it is never cleared.
    path: Vec<i32>,
    /// Per-row touched bounds, for targeted clearing.
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// End times of the candidates, for `l_i` binary searches.
    ends: Vec<i64>,
    /// Budget supervision: polled between rows, charged on table growth.
    guard: &'p Guard,
}

impl DpScheduler<'static> {
    pub fn new() -> DpScheduler<'static> {
        DpScheduler::with_probe(&NOOP)
    }
}

impl<'p> DpScheduler<'p> {
    pub fn with_probe(probe: &'p dyn Probe) -> DpScheduler<'p> {
        DpScheduler::with_guard(probe, Guard::none())
    }

    pub fn with_guard(probe: &'p dyn Probe, guard: &'p Guard) -> DpScheduler<'p> {
        DpScheduler {
            probe,
            omega: Vec::new(),
            path: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            ends: Vec::new(),
            guard,
        }
    }
}

impl SingleScheduler for DpScheduler<'_> {
    fn schedule(&mut self, flat: &FlatInstance, u: UserId, cands: &[Candidate]) -> Vec<usize> {
        dp_single(self, flat, u, cands)
    }
}

/// Runs Algorithm 2 for user `u` over `cands` (end-time order, decomposed
/// utilities strictly positive, Lemma 1 pre-applied). Returns the indices
/// of the chosen candidates in time order; empty when no affordable
/// candidate exists.
pub(crate) fn dp_single(
    ws: &mut DpScheduler<'_>,
    flat: &FlatInstance,
    u: UserId,
    cands: &[Candidate],
) -> Vec<usize> {
    let m = cands.len();
    if m == 0 {
        return Vec::new();
    }
    let budget = flat.budget(u).value() as usize;
    let stride = budget + 1;
    let cells = match m.checked_mul(stride).filter(|&c| c <= MAX_DP_CELLS) {
        Some(c) => c,
        // Under an active guard an oversized table is a memory trip —
        // the user simply gets no schedule and the solve truncates.
        // Unguarded, the legacy fail-fast panic stands (tripping the
        // shared unlimited guard would poison unrelated solves).
        None if ws.guard.is_active() => {
            ws.guard.trip(TruncationReason::MemoryCeiling);
            return Vec::new();
        }
        None => panic!(
            "DPSingle table of {m} candidates × budget {budget} exceeds \
             MAX_DP_CELLS = {MAX_DP_CELLS}; rescale the instance's integer costs"
        ),
    };

    if ws.omega.len() < cells {
        let grown = cells - ws.omega.len();
        let grown_bytes =
            grown * (std::mem::size_of::<f64>() + std::mem::size_of::<i32>());
        if !ws.guard.try_reserve(grown_bytes) {
            return Vec::new();
        }
        ws.omega.resize(cells, 0.0);
        ws.path.resize(cells, 0);
    }
    ws.lo.clear();
    ws.lo.resize(m, u32::MAX);
    ws.hi.clear();
    ws.hi.resize(m, 0);
    ws.ends.clear();
    ws.ends.extend(cands.iter().map(|c| flat.event_end(c.v)));
    debug_assert!(ws.ends.windows(2).all(|w| w[0] <= w[1]), "candidates not in end-time order");

    let mut best_score = 0.0f64;
    let mut best_cell = None::<(usize, usize)>;
    // cell accounting stays in registers; flushed to the probe once below
    let mut cells_visited = 0u64;
    let mut cells_pruned = 0u64;

    for i in 0..m {
        // each processed row leaves a reconstructable best_cell, so
        // breaking here still yields a feasible (shorter) schedule
        if ws.guard.checkpoint() {
            break;
        }
        let vi = cands[i].v;
        let mu_i = cands[i].mu;
        debug_assert!(mu_i > 0.0);
        // both finite by the Lemma 1 filter (round trip ≤ budget)
        let arrive = flat.cost_to_event(u, vi).value() as usize;
        let go_home = flat.cost_from_event(vi, u).value() as usize;
        if arrive + go_home > budget {
            debug_assert!(false, "Lemma 1 filter should have removed this candidate");
            continue;
        }
        // highest affordable arrival cost at v_i, given the return leg
        let t_cap = budget - go_home;

        let (before, row_i) = ws.omega.split_at_mut(i * stride);
        let row_i = &mut row_i[..stride];
        let path_i = &mut ws.path[i * stride..(i + 1) * stride];
        let mut lo_i = ws.lo[i];
        let mut hi_i = ws.hi[i];

        // base case: v_i is the first event
        {
            cells_visited += 1;
            let t0 = arrive;
            if mu_i > row_i[t0] {
                row_i[t0] = mu_i;
                path_i[t0] = -1;
                lo_i = lo_i.min(t0 as u32);
                hi_i = hi_i.max(t0 as u32);
                if mu_i > best_score {
                    best_score = mu_i;
                    best_cell = Some((i, t0));
                }
            }
        }

        // transitions from candidates that end before v_i starts
        let l_i = ws.ends[..i].partition_point(|&e| e <= flat.event_start(vi));
        for l in 0..l_i {
            let Some(c) = flat.cost_vv(cands[l].v, vi).finite_value() else {
                continue;
            };
            let c = c as usize;
            if c > t_cap {
                continue;
            }
            let (llo, lhi) = (ws.lo[l], ws.hi[l]);
            if llo == u32::MAX {
                continue; // row l never touched: no reachable state
            }
            let row_l = &before[l * stride..(l + 1) * stride];
            let t_hi = (t_cap - c).min(lhi as usize);
            let t_lo = llo as usize;
            if t_lo > t_hi {
                continue;
            }
            for (off, &s) in row_l[t_lo..=t_hi].iter().enumerate() {
                if s <= 0.0 {
                    cells_pruned += 1;
                    continue;
                }
                cells_visited += 1;
                let t = t_lo + off;
                let nt = t + c;
                let ns = s + mu_i;
                if ns > row_i[nt] {
                    row_i[nt] = ns;
                    path_i[nt] = l as i32;
                    lo_i = lo_i.min(nt as u32);
                    hi_i = hi_i.max(nt as u32);
                    if ns > best_score {
                        best_score = ns;
                        best_cell = Some((i, nt));
                    }
                }
            }
        }
        ws.lo[i] = lo_i;
        ws.hi[i] = hi_i;
    }

    // reconstruct the chosen candidate chain
    let mut chosen = Vec::new();
    if let Some((mut i, mut t)) = best_cell {
        loop {
            chosen.push(i);
            let prev = ws.path[i * stride + t];
            if prev < 0 {
                break;
            }
            let l = prev as usize;
            let c = flat
                .cost_vv(cands[l].v, cands[i].v)
                .value() as usize;
            t -= c;
            i = l;
        }
        chosen.reverse();
    }

    // restore the all-zero invariant, touching only written cells
    for i in 0..m {
        if ws.lo[i] != u32::MAX {
            let (lo, hi) = (ws.lo[i] as usize, ws.hi[i] as usize);
            ws.omega[i * stride + lo..=i * stride + hi].fill(0.0);
        }
    }
    debug_assert!(chosen.windows(2).all(|w| w[0] < w[1]));
    ws.probe.count(Counter::DpCellVisit, cells_visited);
    ws.probe.count(Counter::DpCellPruned, cells_pruned);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_single_schedule;
    use usep_core::{Cost, EventId, Instance, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn cand(v: EventId, mu: f64) -> Candidate {
        Candidate { v, slot: 0, mu }
    }

    /// Builds an instance with one user and events on a line, all with
    /// capacity 1 and sequential time slots.
    fn line(events: &[(i32, i64, i64)], budget: u32, mus: &[f64]) -> (Instance, Vec<Candidate>) {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for &(x, t1, t2) in events {
            vs.push(b.event(1, Point::new(x, 0), iv(t1, t2)));
        }
        let u = b.user(Point::new(0, 0), Cost::new(budget));
        for (&v, &m) in vs.iter().zip(mus) {
            b.utility(v, u, m);
        }
        let inst = b.build().unwrap();
        // candidates in end-time order, with the Lemma-1 filter applied
        let mut order: Vec<usize> = (0..vs.len()).collect();
        order.sort_by_key(|&i| events[i].2);
        let cands = order
            .into_iter()
            .filter(|&i| inst.round_trip(u, vs[i]) <= inst.user(u).budget)
            .map(|i| cand(vs[i], mus[i]))
            .collect();
        (inst, cands)
    }

    fn score(inst: &Instance, cands: &[Candidate], chosen: &[usize]) -> f64 {
        let _ = inst;
        chosen.iter().map(|&i| cands[i].mu).sum()
    }

    #[test]
    fn empty_candidates() {
        let (inst, _) = line(&[(1, 0, 1)], 10, &[0.5]);
        let mut ws = DpScheduler::new();
        assert!(dp_single(&mut ws, &inst.freeze(), UserId(0), &[]).is_empty());
    }

    #[test]
    fn single_affordable_event() {
        let (inst, cands) = line(&[(3, 0, 10)], 10, &[0.5]);
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        assert_eq!(chosen, vec![0]);
    }

    #[test]
    fn chains_compatible_events() {
        let (inst, cands) = line(
            &[(2, 0, 10), (4, 10, 20), (6, 20, 30)],
            100,
            &[0.5, 0.5, 0.5],
        );
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        assert_eq!(chosen, vec![0, 1, 2]);
    }

    #[test]
    fn budget_forces_choice() {
        // two far-apart events, budget only allows one
        let (inst, cands) = line(&[(5, 0, 10), (-5, 20, 30)], 12, &[0.4, 0.9]);
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        // picks the higher-utility one
        assert_eq!(chosen.len(), 1);
        assert!((cands[chosen[0]].mu - 0.9).abs() < 1e-12);
    }

    #[test]
    fn prefers_many_small_over_one_big_when_optimal() {
        // v0 and v1 chain cheaply (total 0.8), v2 alone is 0.7 but conflicts
        let (inst, cands) = line(
            &[(1, 0, 10), (2, 10, 20), (50, 0, 20)],
            90,
            &[0.4, 0.4, 0.7],
        );
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        let s = score(&inst, &cands, &chosen);
        assert!((s - 0.8).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let (inst, cands) = line(
            &[(2, 0, 10), (4, 10, 20), (6, 20, 30)],
            100,
            &[0.5, 0.5, 0.5],
        );
        let mut ws = DpScheduler::new();
        let a = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        let b = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        assert_eq!(a, b);
        assert!(ws.omega.iter().all(|&x| x == 0.0), "workspace left dirty");
    }

    #[test]
    fn matches_bruteforce_on_dense_cases() {
        // 8 events with mixed overlaps and distances; exhaustive check
        let events: Vec<(i32, i64, i64)> = vec![
            (3, 0, 5),
            (-2, 2, 7), // overlaps the first
            (5, 6, 9),
            (1, 9, 14),
            (-4, 10, 15), // overlaps previous
            (7, 16, 20),
            (0, 21, 25),
            (9, 21, 30), // overlaps previous
        ];
        let mus = [0.3, 0.8, 0.5, 0.2, 0.9, 0.4, 0.6, 0.7];
        for budget in [8u32, 15, 25, 40, 80] {
            let (inst, cands) = line(&events, budget, &mus);
            let mut ws = DpScheduler::new();
            let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
            let got = score(&inst, &cands, &chosen);
            let pairs: Vec<(EventId, f64)> = cands.iter().map(|c| (c.v, c.mu)).collect();
            let (_, want) = optimal_single_schedule(&inst, UserId(0), &pairs);
            assert!(
                (got - want).abs() < 1e-9,
                "budget {budget}: dp {got} vs brute force {want}"
            );
        }
    }

    #[test]
    fn zero_budget_user_at_event_location() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u = b.user(Point::ORIGIN, Cost::new(0));
        b.utility(v, u, 0.6);
        let inst = b.build().unwrap();
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &[cand(v, 0.6)]);
        assert_eq!(chosen, vec![0]);
    }
}
