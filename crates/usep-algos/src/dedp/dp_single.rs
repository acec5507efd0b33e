//! `DPSingle` (Algorithm 2): the utility-optimal single-user schedule.
//!
//! Costs are bounded non-negative integers, so a state `Ω(i, T)` — the
//! best utility of a feasible schedule ending at candidate `i` with
//! travel cost `T` spent getting there — lives on `T ∈ [0, b_u]`. Eq. (4)
//! restricts predecessors to candidates `l ≤ l_i` (those ending no later
//! than `i` starts) and enforces the return leg `T + cost(v̂_i, u) ≤ b_u`
//! at every state, which is lossless under the triangle inequality: if
//! you cannot afford to go home from `v̂_i`, no continuation can ever
//! afford it either.
//!
//! Only each row's *Pareto frontier* is kept. Row `i` is built in one
//! row-sized scratch; once finished, a written cell survives only if its
//! value beats every cheaper cell of the row, and later rows relax from
//! the survivors alone. A dominated cell `(l, T)` — some `T' < T` holds
//! at least its value — can never matter: whatever it writes, `(l, T')`
//! writes at least as much at a lower cost, earlier in the same `l`
//! sweep. With the dense table's iteration order (base case, then `l`
//! ascending, then `T` ascending) and strict `>` on every cell and on the
//! best score, the frontier values, their first-writer predecessors, the
//! first write of the optimum and hence the chosen chain are exactly the
//! dense table's (DESIGN.md §3).
//!
//! Work is `O(Σ frontier states relaxed)`, at most the dense
//! `O(|V'_r|² · b_u)`; memory is one row of `b_u + 1` cells plus the
//! frontier states, reused across users.

use super::{Candidate, SingleScheduler};
use usep_core::{FlatInstance, UserId};
use usep_guard::{Guard, TruncationReason};
use usep_trace::{Counter, Probe, NOOP};

/// Upper bound on `|V'_r| × (b_u + 1)`, the most frontier states one run
/// can hold (at most one per row and cost). It is a sanity bound on the
/// budget scale, not an allocation: exceeding it means the instance's
/// budgets are far outside the integer scales the paper (and this
/// reproduction) use — rescale costs.
pub(crate) const MAX_DP_CELLS: usize = 1 << 27;

/// `pred` of a state whose schedule starts at its own candidate.
const START: u32 = u32::MAX;

/// One frontier state: candidate `row` reached at travel cost `t` with
/// utility `s`, extending frontier state `pred` (or [`START`]).
#[derive(Clone, Copy, Debug)]
struct State {
    t: u32,
    row: u32,
    pred: u32,
    s: f64,
}

/// Reusable workspace for [`dp_single`], implementing
/// [`SingleScheduler`] for the DeDP/DeDPO family.
pub(crate) struct DpScheduler<'p> {
    /// Instrumentation sink; relaxed/dominated counts are accumulated
    /// locally per run and flushed here once, so the probe never sits in
    /// the DP inner loop.
    probe: &'p dyn Probe,
    /// The row under construction, `row[t]`; all-zero between rows.
    row: Vec<f64>,
    /// Frontier state each written `row` cell was last improved from.
    /// Only read where `written` is set, so it is never cleared.
    from: Vec<u32>,
    /// One bit per written `row` cell; all-zero between rows.
    written: Vec<u64>,
    /// The finished rows' frontiers, each in ascending `t`.
    states: Vec<State>,
    /// Row `l`'s frontier is `states[row_start[l]..row_start[l + 1]]`.
    row_start: Vec<u32>,
    /// End times of the candidates, for `l_i` binary searches.
    ends: Vec<i64>,
    /// Budget supervision: polled between rows, charged on scratch and
    /// frontier growth.
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
            row: Vec::new(),
            from: Vec::new(),
            written: Vec::new(),
            states: Vec::new(),
            row_start: Vec::new(),
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

/// Grows `states`' capacity to at least `need`, charging the growth to
/// `guard`; `false` (and `states` untouched) when the guard refuses.
fn reserve_states(states: &mut Vec<State>, need: usize, guard: &Guard) -> bool {
    let cap = states.capacity();
    if need <= cap {
        return true;
    }
    let new_cap = need.max(2 * cap);
    if !guard.try_reserve((new_cap - cap) * std::mem::size_of::<State>()) {
        return false;
    }
    states.reserve_exact(new_cap - states.len());
    true
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
    if m.checked_mul(stride).is_none_or(|c| c > MAX_DP_CELLS) {
        // Under an active guard an oversized run is a memory trip — the
        // user simply gets no schedule and the solve truncates.
        // Unguarded, the legacy fail-fast panic stands (tripping the
        // shared unlimited guard would poison unrelated solves).
        if ws.guard.is_active() {
            ws.guard.trip(TruncationReason::MemoryCeiling);
            return Vec::new();
        }
        panic!(
            "DPSingle of {m} candidates × budget {budget} exceeds \
             MAX_DP_CELLS = {MAX_DP_CELLS}; rescale the instance's integer costs"
        );
    }

    let DpScheduler { probe, row, from, written, states, row_start, ends, guard } = ws;
    if row.len() < stride {
        let words = stride.div_ceil(64);
        let grown_bytes = (stride - row.len())
            * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
            + (words - written.len()) * std::mem::size_of::<u64>();
        if !guard.try_reserve(grown_bytes) {
            return Vec::new();
        }
        row.resize(stride, 0.0);
        from.resize(stride, 0);
        written.resize(words, 0);
    }
    states.clear();
    row_start.clear();
    row_start.push(0);
    ends.clear();
    ends.extend(cands.iter().map(|c| flat.event_end(c.v)));
    debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]), "candidates not in end-time order");

    let mut best_score = 0.0f64;
    // the row and predecessor state of the first write of `best_score`
    let mut best = None::<(usize, u32)>;
    // state accounting stays in registers; flushed to the probe once below
    let mut relaxed = 0u64;
    let mut dominated = 0u64;

    for i in 0..m {
        // each finished row leaves a reconstructable `best`, so breaking
        // here still yields a feasible (shorter) schedule
        if guard.checkpoint() {
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
            row_start.push(states.len() as u32);
            continue;
        }
        // highest affordable arrival cost at v_i, given the return leg
        let t_cap = budget - go_home;
        // room for the row's frontier (at most one state per cost) before
        // any cell is written, so a refusal leaves the scratch clean
        if !reserve_states(states, states.len() + t_cap + 1, guard) {
            break;
        }

        // base case: v_i is the first event (the row starts all-zero)
        relaxed += 1;
        row[arrive] = mu_i;
        from[arrive] = START;
        written[arrive / 64] |= 1 << (arrive % 64);
        if mu_i > best_score {
            best_score = mu_i;
            best = Some((i, START));
        }

        // transitions from candidates that end before v_i starts
        let l_i = ends[..i].partition_point(|&e| e <= flat.event_start(vi));
        for l in 0..l_i {
            let Some(c) = flat.cost_vv(cands[l].v, vi).finite_value() else {
                continue;
            };
            let c = c as usize;
            if c > t_cap {
                continue;
            }
            let t_max = t_cap - c;
            let (lo, hi) = (row_start[l] as usize, row_start[l + 1] as usize);
            for (k, st) in states[lo..hi].iter().enumerate() {
                let t = st.t as usize;
                if t > t_max {
                    break; // the frontier is in ascending t
                }
                relaxed += 1;
                let nt = t + c;
                let ns = st.s + mu_i;
                if ns > row[nt] {
                    let k = (lo + k) as u32;
                    row[nt] = ns;
                    from[nt] = k;
                    written[nt / 64] |= 1 << (nt % 64);
                    if ns > best_score {
                        best_score = ns;
                        best = Some((i, k));
                    }
                }
            }
        }

        // keep the row's frontier, zeroing every written cell
        let mut frontier_max = 0.0f64;
        for (w, word) in written[..=t_cap / 64].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = std::mem::take(&mut row[t]);
                if s > frontier_max {
                    frontier_max = s;
                    states.push(State { t: t as u32, row: i as u32, pred: from[t], s });
                } else {
                    dominated += 1;
                }
            }
        }
        row_start.push(states.len() as u32);
    }

    // reconstruct the chosen candidate chain
    let mut chosen = Vec::new();
    if let Some((i, mut pred)) = best {
        chosen.push(i);
        while pred != START {
            let st = states[pred as usize];
            chosen.push(st.row as usize);
            pred = st.pred;
        }
        chosen.reverse();
    }
    debug_assert!(chosen.windows(2).all(|w| w[0] < w[1]));
    probe.count(Counter::DpCellVisit, relaxed);
    probe.count(Counter::DpCellPruned, dominated);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_single_schedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usep_core::{Cost, EventId, Instance, InstanceBuilder, Point, TimeInterval, TravelCost};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn cand(v: EventId, mu: f64) -> Candidate {
        Candidate { v, slot: 0, mu }
    }

    /// Workspace of Algorithm 2 over the dense `|V'_r| × (b_u + 1)`
    /// table: the reference the frontier DP must reproduce choice for
    /// choice.
    #[derive(Default)]
    struct DenseTable {
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
    }

    /// Algorithm 2 over the dense table.
    fn dense_dp_single(
        ws: &mut DenseTable,
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
        let cells = m * stride;
        if ws.omega.len() < cells {
            ws.omega.resize(cells, 0.0);
            ws.path.resize(cells, 0);
        }
        ws.lo.clear();
        ws.lo.resize(m, u32::MAX);
        ws.hi.clear();
        ws.hi.resize(m, 0);
        ws.ends.clear();
        ws.ends.extend(cands.iter().map(|c| flat.event_end(c.v)));

        let mut best_score = 0.0f64;
        let mut best_cell = None::<(usize, usize)>;

        for i in 0..m {
            let vi = cands[i].v;
            let mu_i = cands[i].mu;
            let arrive = flat.cost_to_event(u, vi).value() as usize;
            let go_home = flat.cost_from_event(vi, u).value() as usize;
            if arrive + go_home > budget {
                continue;
            }
            let t_cap = budget - go_home;

            let (before, row_i) = ws.omega.split_at_mut(i * stride);
            let row_i = &mut row_i[..stride];
            let path_i = &mut ws.path[i * stride..(i + 1) * stride];
            let mut lo_i = ws.lo[i];
            let mut hi_i = ws.hi[i];

            // base case: v_i is the first event
            {
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
                        continue;
                    }
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
                let c = flat.cost_vv(cands[l].v, cands[i].v).value() as usize;
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
        chosen
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

    /// A random single-user case: 1–14 events on a small grid with
    /// overlapping intervals, optional travel-time gating (unreachable
    /// legs) and fees, a budget in 0–90, and candidate utilities drawn
    /// from a tie-heavy grid (multiples of 1/2, 1/4 or 1/8) or fine.
    fn random_case(rng: &mut StdRng) -> (Instance, Vec<Candidate>) {
        let n = rng.gen_range(1..=14usize);
        let mut b = InstanceBuilder::new();
        let vs: Vec<EventId> = (0..n)
            .map(|_| {
                let at = Point::new(rng.gen_range(-12..=12), rng.gen_range(-12..=12));
                let start = rng.gen_range(0..60i64);
                b.event(1, at, iv(start, start + rng.gen_range(1..=12i64)))
            })
            .collect();
        if rng.gen_bool(0.4) {
            b.travel(TravelCost::Grid { time_per_unit: 1 });
        }
        if rng.gen_bool(0.3) {
            for &v in &vs {
                b.fee(v, rng.gen_range(0..=4));
            }
        }
        let at = Point::new(rng.gen_range(-6..=6), rng.gen_range(-6..=6));
        let u = b.user(at, Cost::new(rng.gen_range(0..=90)));
        let inst = b.build().unwrap();
        let grid = [2.0, 4.0, 8.0, 0.0][rng.gen_range(0..4usize)];
        let mut order: Vec<EventId> = vs
            .into_iter()
            .filter(|&v| inst.round_trip(u, v) <= inst.user(u).budget)
            .collect();
        order.sort_by_key(|&v| (inst.event(v).time.end(), inst.event(v).time.start(), v));
        let cands = order
            .into_iter()
            .map(|v| {
                let mu = if grid == 0.0 {
                    rng.gen_range(1e-6..1.0)
                } else {
                    f64::from(rng.gen_range(1..=grid as u32)) / grid
                };
                cand(v, mu)
            })
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
        assert!(ws.row.iter().all(|&x| x == 0.0), "row scratch left dirty");
        assert!(ws.written.iter().all(|&w| w == 0), "written bitmap left dirty");
    }

    #[test]
    fn refused_frontier_growth_stops_between_rows() {
        // row 0 (x = 50) can return home from cost 50 at most, row 1
        // (x = 1) from 99, so only row 1 grows the frontier buffer; a
        // ceiling of the row scratch plus row 0's room refuses it
        let (inst, cands) = line(&[(50, 0, 10), (1, 10, 20)], 100, &[0.5, 0.5]);
        let flat = inst.freeze();
        assert_eq!(dp_single(&mut DpScheduler::new(), &flat, UserId(0), &cands), vec![0, 1]);
        let (stride, words) = (101, 2);
        let scratch = stride * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
            + words * std::mem::size_of::<u64>();
        let row0 = 51 * std::mem::size_of::<State>();
        let guard =
            Guard::new(&usep_guard::SolveBudget::unlimited().with_memory_ceiling(scratch + row0));
        let mut ws = DpScheduler::with_guard(&NOOP, &guard);
        assert_eq!(dp_single(&mut ws, &flat, UserId(0), &cands), vec![0]);
        assert_eq!(
            guard.outcome(),
            usep_guard::SolveOutcome::Truncated { reason: TruncationReason::MemoryCeiling }
        );
        assert!(ws.row.iter().all(|&x| x == 0.0), "row scratch left dirty");
        assert!(ws.written.iter().all(|&w| w == 0), "written bitmap left dirty");
    }

    #[test]
    fn dominated_cells_are_dropped() {
        // v2 is reachable from v0 (cheap leg) and from v1 (dearer leg) at
        // the same total utility: the dearer cell is dominated
        let (inst, cands) = line(
            &[(1, 0, 10), (-3, 0, 10), (2, 10, 20)],
            100,
            &[0.5, 0.5, 0.5],
        );
        let sink = usep_trace::TraceSink::new();
        let mut ws = DpScheduler::with_probe(&sink);
        let chosen = dp_single(&mut ws, &inst.freeze(), UserId(0), &cands);
        assert_eq!(chosen, vec![0, 2]);
        // three base cases plus one relaxation from each of v0 and v1
        assert_eq!(sink.counter(Counter::DpCellVisit), 5);
        assert_eq!(sink.counter(Counter::DpCellPruned), 1);
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
    fn frontier_matches_the_dense_table_on_seeded_cases() {
        let mut rng = StdRng::seed_from_u64(0x0D95);
        let (mut ws, mut dense) = (DpScheduler::new(), DenseTable::default());
        let mut chains = 0;
        for case in 0..20_000 {
            let (inst, cands) = random_case(&mut rng);
            let flat = inst.freeze();
            let got = dp_single(&mut ws, &flat, UserId(0), &cands);
            let want = dense_dp_single(&mut dense, &flat, UserId(0), &cands);
            assert_eq!(got, want, "case {case}: frontier and dense table chose differently");
            chains += usize::from(got.len() > 1);
        }
        assert!(chains >= 1_000, "only {chains} multi-event chains exercised");
        assert!(ws.row.iter().all(|&x| x == 0.0), "row scratch left dirty");
        assert!(ws.written.iter().all(|&w| w == 0), "written bitmap left dirty");
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
