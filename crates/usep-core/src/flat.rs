//! [`FlatInstance`] — the cache-friendly structure-of-arrays lowering
//! of an [`Instance`], produced once per instance by
//! [`Instance::freeze`], borrowed read-only by every solver hot path,
//! and amended in place by the instance's `patch_*` methods.
//!
//! Every schedule-level operation the algorithms perform per candidate
//! pair — the insertion-point probe, Eq. (3)'s incremental cost, the
//! total-cost chain, the utility sum — is an inherent method here over a
//! raw `&[EventId]` slice, so [`Schedule`](crate::Schedule) (which
//! delegates here) and slice-juggling solver internals share one
//! implementation. [`Instance`]'s object accessors stay the
//! construction and serde model; [`FlatInstance::build`] copies exactly
//! the values they derive.
//!
//! # Layout
//!
//! All arrays are dense, contiguous, and indexed by the raw `u32` ids:
//!
//! * `mu` — `|U| × |V|` row-major by user (`mu[u * nv + v]`), a verbatim
//!   copy of the object matrix so μ sums stay bit-identical.
//! * `to` / `from` / `rt` — `|U| × |V|` user↔event leg costs with the
//!   Remark-2 fee folded exactly as the object accessors fold it
//!   (`cost_to_event` carries the fee, `cost_from_event` does not,
//!   `round_trip` is their saturating sum).
//! * `vv` — the `|V| × |V|` directed event-event matrix, copied from
//!   the instance's precomputed `event_costs`.
//! * `start` / `end` — event interval endpoints, for the positional
//!   prefix scan that recovers an insertion position.
//!
//! # Conflict bitmask
//!
//! `conflict` holds `|V|` rows of `⌈|V|/64⌉` little-endian words; bit
//! `j` of row `i` (word `j / 64`, bit `j % 64`) is set iff `i == j`
//! (duplicate) or the intervals of `i` and `j` overlap
//! (`start_i < end_j && start_j < end_i`). This is a pure **time**
//! predicate — deliberately not cost-based: non-adjacent mutually
//! unreachable pairs are legal in feasible schedules (only consecutive
//! legs are costed), so folding reachability into the mask would
//! over-reject.
//!
//! A probed event fits a time-ordered, non-overlapping schedule exactly
//! when it is neither a duplicate of nor time-overlapping with any
//! scheduled event (transitivity of `precedes` makes the events before
//! it a prefix), so a row-AND against an occupancy bitset, or per-event
//! bit probes when no bitset is maintained, is the whole Def.-1 time
//! check.

use crate::cost::Cost;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;

/// Normalizes IEEE-754 `-0.0` to `+0.0`.
///
/// An empty `Iterator::sum::<f64>()` over a rev-folded accumulator can
/// produce `-0.0`; every utility aggregate (Ω, per-schedule utility,
/// marginal gains) passes through this single helper so serialized
/// objectives never leak a sign bit that depends on summation shape.
#[inline]
pub fn normalize_utility(x: f64) -> f64 {
    x + 0.0
}

/// The flat SoA view of one instance. See the module docs for layout.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatInstance {
    nv: usize,
    nu: usize,
    /// Words per conflict/occupancy row: `⌈nv / 64⌉`.
    words: usize,
    /// `|U| × |V|` row-major utilities (verbatim copy).
    mu: Vec<f32>,
    /// `|U| × |V|` inbound leg costs (fee folded in).
    to: Vec<Cost>,
    /// `|U| × |V|` outbound leg costs (no fee).
    from: Vec<Cost>,
    /// `|U| × |V|` round trips (`to + from`, saturating).
    rt: Vec<Cost>,
    /// `|V| × |V|` directed event-event costs.
    vv: Vec<Cost>,
    /// Event interval starts, indexed by event.
    start: Vec<i64>,
    /// Event interval ends, indexed by event.
    end: Vec<i64>,
    /// Event capacities.
    capacity: Vec<u32>,
    /// User budgets.
    budget: Vec<Cost>,
    /// `|V| × words` time-conflict bitmask rows (diagonal set).
    conflict: Vec<u64>,
}

impl FlatInstance {
    /// Lowers `inst` into the flat layout. Called once per instance by
    /// [`Instance::freeze`]; every value is read through the object
    /// accessors so the copy is bit-identical by construction.
    pub fn build(inst: &Instance) -> FlatInstance {
        let nv = inst.num_events();
        let nu = inst.num_users();
        let mut mu = Vec::with_capacity(nu * nv);
        for u in inst.user_ids() {
            mu.extend_from_slice(inst.mu_row(u));
        }

        let mut to = Vec::with_capacity(nu * nv);
        let mut from = Vec::with_capacity(nu * nv);
        let mut rt = Vec::with_capacity(nu * nv);
        for u in inst.user_ids() {
            for v in inst.event_ids() {
                let t = inst.cost_to_event(u, v);
                let f = inst.cost_from_event(v, u);
                to.push(t);
                from.push(f);
                rt.push(t.add(f));
            }
        }

        let mut vv = Vec::with_capacity(nv * nv);
        for i in inst.event_ids() {
            for j in inst.event_ids() {
                vv.push(inst.cost_vv(i, j));
            }
        }

        let start: Vec<i64> = inst.events().iter().map(|e| e.time.start()).collect();
        let end: Vec<i64> = inst.events().iter().map(|e| e.time.end()).collect();
        let capacity: Vec<u32> = inst.events().iter().map(|e| e.capacity).collect();
        let budget: Vec<Cost> = inst.users().iter().map(|u| u.budget).collect();

        let mut flat = FlatInstance {
            nv,
            nu,
            words: 0,
            mu,
            to,
            from,
            rt,
            vv,
            start,
            end,
            capacity,
            budget,
            conflict: Vec::new(),
        };
        flat.rebuild_conflict();
        flat
    }

    /// Amends one capacity cell (`Instance::patch_set_capacity`).
    pub(crate) fn amend_capacity(&mut self, v: EventId, capacity: u32) {
        self.capacity[v.index()] = capacity;
    }

    /// Amends one μ cell (`Instance::patch_set_mu`).
    pub(crate) fn amend_mu(&mut self, v: EventId, u: UserId, mu: f32) {
        self.mu[u.index() * self.nv + v.index()] = mu;
    }

    /// Appends one user row. `inst` must already hold the new user at
    /// index `u`; only the new user's `|V|` leg costs are derived.
    pub(crate) fn amend_add_user(&mut self, inst: &Instance, u: UserId) {
        debug_assert_eq!(u.index(), self.nu);
        self.mu.extend_from_slice(inst.mu_row(u));
        for v in inst.event_ids() {
            let t = inst.cost_to_event(u, v);
            let b = inst.cost_from_event(v, u);
            self.to.push(t);
            self.from.push(b);
            self.rt.push(t.add(b));
        }
        self.budget.push(inst.user(u).budget);
        self.nu += 1;
    }

    /// Swap-removes user `u`'s row (the last row moves into `u`'s slot,
    /// mirroring `Vec::swap_remove` on the object arrays).
    pub(crate) fn amend_remove_user(&mut self, u: UserId) {
        let last = self.nu - 1;
        for arr in [&mut self.to, &mut self.from, &mut self.rt] {
            swap_remove_row(arr, u.index(), last, self.nv);
        }
        swap_remove_row(&mut self.mu, u.index(), last, self.nv);
        self.budget.swap_remove(u.index());
        self.nu = last;
    }

    /// Appends one event column. `inst` must already hold the new event
    /// at index `v` (the last index): every per-user row and the `vv`
    /// matrix are re-strided in place with only the new cells derived,
    /// and the conflict bitmask is re-derived from the interval
    /// endpoints (pure bit work — no cost recomputation anywhere).
    pub(crate) fn amend_add_event(&mut self, inst: &Instance, v: EventId) {
        let (old, nu) = (self.nv, self.nu);
        debug_assert_eq!(v.index(), old);
        let user = |r: usize| UserId(r as u32);
        widen_rows(&mut self.mu, nu, old, |r| inst.mu_row(user(r))[old]);
        widen_rows(&mut self.to, nu, old, |r| inst.cost_to_event(user(r), v));
        widen_rows(&mut self.from, nu, old, |r| inst.cost_from_event(v, user(r)));
        widen_rows(&mut self.rt, nu, old, |r| inst.round_trip(user(r), v));
        widen_rows(&mut self.vv, old, old, |i| inst.cost_vv(EventId(i as u32), v));
        self.vv.extend(inst.event_ids().map(|j| inst.cost_vv(v, j)));
        let event = inst.event(v);
        self.start.push(event.time.start());
        self.end.push(event.time.end());
        self.capacity.push(event.capacity);
        self.nv = old + 1;
        self.rebuild_conflict();
    }

    /// Swap-removes event `v`'s column (the last event's column moves
    /// into `v`'s slot). Pure in-place re-layout: no cost is
    /// recomputed, the conflict mask is re-derived from endpoints.
    pub(crate) fn amend_remove_event(&mut self, v: EventId) {
        let (old, nu) = (self.nv, self.nu);
        for arr in [&mut self.to, &mut self.from, &mut self.rt] {
            narrow_rows(arr, nu, old, v.index());
        }
        narrow_rows(&mut self.mu, nu, old, v.index());
        swap_remove_row(&mut self.vv, v.index(), old - 1, old);
        narrow_rows(&mut self.vv, old - 1, old, v.index());
        self.start.swap_remove(v.index());
        self.end.swap_remove(v.index());
        self.capacity.swap_remove(v.index());
        self.nv = old - 1;
        self.rebuild_conflict();
    }

    /// Re-derives the `|V| × words` time-conflict bitmask from the
    /// interval endpoints, in place — shared by [`FlatInstance::build`]
    /// and the event amendments so both derive the identical predicate.
    fn rebuild_conflict(&mut self) {
        let nv = self.nv;
        self.words = nv.div_ceil(64);
        let words = self.words;
        self.conflict.clear();
        self.conflict.resize(nv * words, 0);
        for i in 0..nv {
            let row = &mut self.conflict[i * words..(i + 1) * words];
            for j in 0..nv {
                let conflicts =
                    i == j || (self.start[i] < self.end[j] && self.start[j] < self.end[i]);
                if conflicts {
                    row[j / 64] |= 1u64 << (j % 64);
                }
            }
        }
    }

    /// Words per conflict/occupancy row (`⌈|V| / 64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The time-conflict row of event `v` (bit `j` set iff `j`
    /// conflicts with `v`, diagonal included).
    #[inline]
    pub fn conflict_row(&self, v: EventId) -> &[u64] {
        &self.conflict[v.index() * self.words..(v.index() + 1) * self.words]
    }

    /// Whether any event in the `occupied` bitset conflicts with `v`:
    /// the `conflict_word & occupied_word != 0` probe.
    #[inline]
    pub fn conflicts_with_occupied(&self, occupied: &[u64], v: EventId) -> bool {
        debug_assert_eq!(occupied.len(), self.words);
        self.conflict_row(v).iter().zip(occupied).any(|(&c, &o)| c & o != 0)
    }

    /// The round-trip costs of user `u` over all events (indexed by
    /// `EventId`) — the Lemma-1 prefilter row as one contiguous slice.
    #[inline]
    pub fn round_trip_row(&self, u: UserId) -> &[Cost] {
        &self.rt[u.index() * self.nv..(u.index() + 1) * self.nv]
    }
}

/// In-place `Vec::swap_remove` of row `row` in a `stride`-strided
/// row-major matrix with `last + 1` rows: the last row moves into
/// `row`'s slot, then the vector shrinks by one row.
pub(crate) fn swap_remove_row<T: Copy>(arr: &mut Vec<T>, row: usize, last: usize, stride: usize) {
    if row != last {
        arr.copy_within(last * stride..(last + 1) * stride, row * stride);
    }
    arr.truncate(last * stride);
}

/// Re-strides a `rows × stride` row-major matrix to `stride + 1` in
/// place, appending `cell(r)` to row `r`. Rows move back to front,
/// since each lands at or past where it started.
pub(crate) fn widen_rows<T: Copy>(
    arr: &mut Vec<T>,
    rows: usize,
    stride: usize,
    mut cell: impl FnMut(usize) -> T,
) {
    let Some(last) = rows.checked_sub(1) else { return };
    let wide = stride + 1;
    // the fill value is the last row's new cell, already in place
    let tail = cell(last);
    arr.resize(rows * wide, tail);
    for r in (0..rows).rev() {
        arr.copy_within(r * stride..(r + 1) * stride, r * wide);
        if r != last {
            arr[r * wide + stride] = cell(r);
        }
    }
}

/// Re-strides a `rows × stride` row-major matrix to `stride - 1` in
/// place by swap-removing column `col` from every row: the last column
/// moves into `col`'s slot, as `Vec::swap_remove` does. Rows move front
/// to back, since each lands at or before where it started.
pub(crate) fn narrow_rows<T: Copy>(arr: &mut Vec<T>, rows: usize, stride: usize, col: usize) {
    let narrow = stride - 1;
    for r in 0..rows {
        let row = r * stride;
        arr[row + col] = arr[row + narrow];
        arr.copy_within(row..row + narrow, r * narrow);
    }
    arr.truncate(rows * narrow);
}

impl FlatInstance {
    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.nu
    }

    /// Utility `μ(v, u) ∈ [0, 1]`.
    #[inline]
    pub fn mu(&self, v: EventId, u: UserId) -> f64 {
        f64::from(self.mu[u.index() * self.nv + v.index()])
    }

    /// The utilities of user `u` over all events, indexed by `EventId`.
    #[inline]
    pub fn mu_row(&self, u: UserId) -> &[f32] {
        &self.mu[u.index() * self.nv..(u.index() + 1) * self.nv]
    }

    /// Cost of traveling *to* event `v` from home (fee folded in).
    #[inline]
    pub fn cost_to_event(&self, u: UserId, v: EventId) -> Cost {
        self.to[u.index() * self.nv + v.index()]
    }

    /// Cost of traveling home *from* event `v` (no fee).
    #[inline]
    pub fn cost_from_event(&self, v: EventId, u: UserId) -> Cost {
        self.from[u.index() * self.nv + v.index()]
    }

    /// Directed event-to-event cost (target fee folded in), infinite
    /// when the pair is spatio-temporally incompatible.
    #[inline]
    pub fn cost_vv(&self, i: EventId, j: EventId) -> Cost {
        self.vv[i.index() * self.nv + j.index()]
    }

    /// Round-trip cost of attending only `v`.
    #[inline]
    pub fn round_trip(&self, u: UserId, v: EventId) -> Cost {
        self.rt[u.index() * self.nv + v.index()]
    }

    /// Travel budget of user `u`.
    #[inline]
    pub fn budget(&self, u: UserId) -> Cost {
        self.budget[u.index()]
    }

    /// Capacity of event `v`.
    #[inline]
    pub fn capacity(&self, v: EventId) -> u32 {
        self.capacity[v.index()]
    }

    /// Start time of event `v`.
    #[inline]
    pub fn event_start(&self, v: EventId) -> i64 {
        self.start[v.index()]
    }

    /// End time of event `v`.
    #[inline]
    pub fn event_end(&self, v: EventId) -> i64 {
        self.end[v.index()]
    }

    /// The position at which `v` would be inserted into the
    /// time-ordered `events`, or `None` when `v` is a duplicate or
    /// time-conflicts with a scheduled event.
    ///
    /// Per-event bit probes of `v`'s conflict row decide the time check
    /// (a clear section means both "no duplicate", via the diagonal bit,
    /// and "no overlap"); the position is then the ordinal prefix scan.
    #[inline]
    pub fn insertion_point(&self, events: &[EventId], v: EventId) -> Option<usize> {
        let row = self.conflict_row(v);
        for &e in events {
            if row[e.index() / 64] & (1u64 << (e.index() % 64)) != 0 {
                return None;
            }
        }
        Some(self.insertion_pos_unchecked(events, v))
    }

    /// The insertion position of `v` assuming it is already known to be
    /// conflict-free (e.g. after [`FlatInstance::conflicts_with_occupied`]
    /// said so): the length of the prefix of events preceding `v`.
    #[inline]
    pub fn insertion_pos_unchecked(&self, events: &[EventId], v: EventId) -> usize {
        let sv = self.event_start(v);
        events.iter().take_while(|&&m| self.event_end(m) <= sv).count()
    }

    /// Eq. (3) with a precomputed insertion point: the extra travel
    /// incurred if `v` were inserted into `events` at `pos` for user
    /// `u`; infinite when a new leg is unreachable.
    #[inline]
    pub fn inc_cost_at(&self, events: &[EventId], u: UserId, v: EventId, pos: usize) -> Cost {
        let n = events.len();
        if n == 0 {
            return self.round_trip(u, v);
        }
        if pos == 0 {
            let first = events[0];
            let new_legs = self.cost_to_event(u, v).add(self.cost_vv(v, first));
            if new_legs.is_infinite() {
                return Cost::INFINITE;
            }
            return new_legs.sub(self.cost_to_event(u, first));
        }
        if pos == n {
            let last = events[n - 1];
            let new_legs = self.cost_vv(last, v).add(self.cost_from_event(v, u));
            if new_legs.is_infinite() {
                return Cost::INFINITE;
            }
            return new_legs.sub(self.cost_from_event(last, u));
        }
        let prev = events[pos - 1];
        let next = events[pos];
        let new_legs = self.cost_vv(prev, v).add(self.cost_vv(v, next));
        if new_legs.is_infinite() {
            return Cost::INFINITE;
        }
        new_legs.sub(self.cost_vv(prev, next))
    }

    /// Eq. (3) without a precomputed position: infinite when `v` cannot
    /// be inserted at all.
    #[inline]
    pub fn inc_cost(&self, events: &[EventId], u: UserId, v: EventId) -> Cost {
        let Some(pos) = self.insertion_point(events, v) else {
            return Cost::INFINITE;
        };
        self.inc_cost_at(events, u, v, pos)
    }

    /// Total round-trip travel cost of the schedule `events` for `u`.
    #[inline]
    pub fn total_cost(&self, events: &[EventId], u: UserId) -> Cost {
        let Some((&first, rest)) = events.split_first() else {
            return Cost::ZERO;
        };
        let mut total = self.cost_to_event(u, first);
        let mut prev = first;
        for &v in rest {
            total = total.add(self.cost_vv(prev, v));
            prev = v;
        }
        total.add(self.cost_from_event(prev, u))
    }

    /// Total utility `Σ_{v ∈ events} μ(v, u)`, `-0.0`-normalized.
    #[inline]
    pub fn utility(&self, events: &[EventId], u: UserId) -> f64 {
        normalize_utility(events.iter().map(|&v| self.mu(v, u)).sum::<f64>())
    }

    /// Whether `v` could be inserted into `events` for `u` without
    /// violating schedule-level constraints (time, reachability,
    /// budget).
    #[inline]
    pub fn can_insert(&self, events: &[EventId], u: UserId, v: EventId) -> bool {
        let Some(pos) = self.insertion_point(events, v) else {
            return false;
        };
        let inc = self.inc_cost_at(events, u, v, pos);
        if inc.is_infinite() {
            return false;
        }
        self.total_cost(events, u).add(inc) <= self.budget(u)
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

    fn fixture() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20)); // touches v0's endpoint
        b.event(3, Point::new(5, 5), iv(5, 15)); // overlaps both
        b.event(1, Point::new(20, 0), iv(25, 40));
        let u0 = b.user(Point::new(1, 1), Cost::new(80));
        let u1 = b.user(Point::new(8, 2), Cost::new(35));
        for v in 0..4 {
            b.utility(EventId(v), u0, 0.1 + 0.2 * f64::from(v));
            b.utility(EventId(v), u1, 0.9 - 0.2 * f64::from(v));
        }
        b.fee(EventId(1), 3);
        b.build().unwrap()
    }

    #[test]
    fn normalize_utility_pins_negative_zero() {
        let z = normalize_utility(-0.0);
        assert_eq!(z, 0.0);
        assert!(z.is_sign_positive(), "-0.0 must normalize to +0.0");
        // non-zero values pass through untouched
        assert_eq!(normalize_utility(1.25), 1.25);
        assert_eq!(normalize_utility(-1.25), -1.25);
    }

    #[test]
    fn freeze_is_cached_and_shared() {
        let inst = fixture();
        let a = inst.freeze();
        let b = inst.freeze();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "freeze must cache its Arc");
    }

    #[test]
    fn flat_accessors_match_object_accessors() {
        let inst = fixture();
        let flat = inst.freeze();
        assert_eq!(flat.num_users(), inst.num_users());
        for u in inst.user_ids() {
            assert_eq!(flat.budget(u), inst.user(u).budget);
            assert_eq!(flat.mu_row(u), inst.mu_row(u));
            for v in inst.event_ids() {
                assert_eq!(flat.mu(v, u).to_bits(), inst.mu(v, u).to_bits());
                assert_eq!(flat.cost_to_event(u, v), inst.cost_to_event(u, v));
                assert_eq!(flat.cost_from_event(v, u), inst.cost_from_event(v, u));
                assert_eq!(flat.round_trip(u, v), inst.round_trip(u, v));
            }
        }
        for i in inst.event_ids() {
            assert_eq!(flat.capacity(i), inst.event(i).capacity);
            assert_eq!(flat.event_start(i), inst.event(i).time.start());
            assert_eq!(flat.event_end(i), inst.event(i).time.end());
            for j in inst.event_ids() {
                assert_eq!(flat.cost_vv(i, j), inst.cost_vv(i, j));
            }
        }
    }

    #[test]
    fn conflict_mask_is_time_overlap_plus_diagonal() {
        let inst = fixture();
        let flat = inst.freeze();
        for i in inst.event_ids() {
            let row = flat.conflict_row(i);
            for j in inst.event_ids() {
                let bit = row[j.index() / 64] & (1 << (j.index() % 64)) != 0;
                let expect =
                    i == j || inst.event(i).time.overlaps(inst.event(j).time);
                assert_eq!(bit, expect, "conflict[{i}][{j}]");
            }
        }
        // touching endpoints (v0 ends exactly when v1 starts) are NOT a
        // conflict — precedes uses `end <= start`
        assert_eq!(
            flat.conflict_row(EventId(0))[0] & (1 << 1),
            0,
            "touching endpoints must not conflict"
        );
    }

    #[test]
    fn occupied_word_probe_matches_per_event_probes() {
        let inst = fixture();
        let flat = inst.freeze();
        let words = flat.words();
        // all 2^4 occupancy bitsets of the 4 events
        for mask in 0u64..16 {
            let mut occupied = vec![0u64; words];
            occupied[0] = mask;
            let events: Vec<EventId> =
                (0..4u32).filter(|b| mask & (1 << b) != 0).map(EventId).collect();
            for v in inst.event_ids() {
                let by_word = flat.conflicts_with_occupied(&occupied, v);
                let by_probe = flat.insertion_point(&events, v).is_none();
                assert_eq!(by_word, by_probe, "mask {mask:04b} probe {v}");
            }
        }
    }
}
