//! Incremental instance patching — the `usep-delta` substrate.
//!
//! Outside this module an [`Instance`] never changes after
//! construction, so its derived structures (event-cost matrix, temporal
//! index, frozen SoA view) can never go stale. The delta-solve engine
//! needs the opposite: apply a typed mutation — event add/remove,
//! capacity change, user arrive/depart, μ update — **without** paying
//! the full `assemble()` recomputation (`O(|V|²)` pairwise costs) or a
//! cold [`FlatInstance`] rebuild (`O(|U||V|)` leg derivations) per
//! mutation.
//!
//! The patch methods below mutate the object arrays in place and then
//! *amend* each derived structure in place instead of rebuilding it:
//!
//! * **Scalar patches** (`patch_set_capacity`, `patch_set_mu`) write
//!   one cell of one array and one cell of the frozen view; the cost
//!   matrices are untouched.
//! * **Structural patches** append at the dense tail
//!   (`patch_add_event`, `patch_add_user`) or swap-remove
//!   (`patch_remove_event`, `patch_remove_user`), so existing dense
//!   indices are stable except for the single moved entity, which the
//!   caller remaps via the returned old index. Only the added entity's
//!   row/column of each cost matrix is derived. A user add appends one
//!   row and a user removal swap-removes one; an event add or removal
//!   re-strides every row in place (`widen_rows` / `narrow_rows` in
//!   `flat.rs`, shared by the object arrays and the frozen view).
//! * The frozen [`FlatInstance`], if one exists, is amended through the
//!   `amend_*` methods in `flat.rs`, reached via `Arc::make_mut`: in
//!   place when the instance holds the only handle (always the case
//!   inside a delta engine), copy-on-write when a caller still holds a
//!   handle from [`Instance::freeze`], so a held snapshot never changes.
//!   Amended and cold-built views are `PartialEq`-identical by
//!   construction — the differential suites assert it.
//!
//! Structural patches require [`TravelCost::Grid`]: explicit cost
//! matrices carry no generative model to derive a new entity's legs
//! from, so those return [`PatchError::ExplicitTravel`]. Scalar patches
//! work under either travel model.

use super::{Instance, TravelCost};
use crate::cost::Cost;
use crate::event::Event;
use crate::flat::{narrow_rows, swap_remove_row, widen_rows, FlatInstance};
use crate::geo::Point;
use crate::ids::{EventId, UserId};
use crate::temporal::TemporalIndex;
use crate::time::TimeInterval;
use crate::user::User;
use std::sync::Arc;

/// Why a patch was refused. Refused patches leave the instance (and its
/// frozen view) exactly as they were.
#[derive(Clone, Debug, PartialEq)]
pub enum PatchError {
    /// The event index is out of range.
    UnknownEvent(EventId),
    /// The user index is out of range.
    UnknownUser(UserId),
    /// Events must hold at least one attendee.
    ZeroCapacity,
    /// `u32::MAX` encodes an infinite cost and is not a valid fee.
    InfiniteFee,
    /// Budgets must be finite.
    InfiniteBudget,
    /// A utility outside `[0, 1]` (or non-finite).
    BadUtility(f64),
    /// A μ row/column of the wrong length.
    MuShape {
        /// Entries required (one per counterpart entity).
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// Structural patches need `TravelCost::Grid` to derive new legs.
    ExplicitTravel,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::UnknownEvent(v) => write!(f, "unknown event {v}"),
            PatchError::UnknownUser(u) => write!(f, "unknown user {u}"),
            PatchError::ZeroCapacity => write!(f, "capacity must be at least 1"),
            PatchError::InfiniteFee => write!(f, "fee u32::MAX is reserved for infinity"),
            PatchError::InfiniteBudget => write!(f, "budget must be finite"),
            PatchError::BadUtility(x) => write!(f, "utility {x} outside [0, 1]"),
            PatchError::MuShape { expected, got } => {
                write!(f, "utility vector has {got} entries, expected {expected}")
            }
            PatchError::ExplicitTravel => {
                write!(f, "structural patches require grid travel costs")
            }
        }
    }
}

impl std::error::Error for PatchError {}

fn check_mu_values(mu: &[f32]) -> Result<(), PatchError> {
    for &m in mu {
        if !m.is_finite() || !(0.0..=1.0).contains(&m) {
            return Err(PatchError::BadUtility(f64::from(m)));
        }
    }
    Ok(())
}

/// One directed grid event-pair cost — the per-cell core of
/// `compute_event_costs`, used by the add-event patch to derive only
/// the new row and column. Must stay in lockstep with that function;
/// the patch test suite asserts full-matrix equality after every patch.
fn grid_directed_cost(
    events: &[Event],
    time_per_unit: u32,
    fees: &[u32],
    i: usize,
    j: usize,
) -> Cost {
    if i == j || !events[i].time.precedes(events[j].time) {
        return Cost::INFINITE;
    }
    let dist = events[i].location.cost_to(events[j].location);
    let reachable = if time_per_unit == 0 {
        true
    } else if let Some(d) = dist.finite_value() {
        let travel_time = u64::from(d) * u64::from(time_per_unit);
        let gap = events[i].time.gap_before(events[j].time).unwrap_or(0);
        gap >= 0 && travel_time <= gap as u64
    } else {
        false
    };
    if !reachable {
        return Cost::INFINITE;
    }
    let fee = if fees.is_empty() { 0 } else { fees[j] };
    if fee == 0 || fee == u32::MAX || !dist.is_finite() {
        dist
    } else {
        dist.add(Cost::new(fee))
    }
}

impl Instance {
    fn grid_time_per_unit(&self) -> Result<u32, PatchError> {
        match &self.travel {
            TravelCost::Grid { time_per_unit } => Ok(*time_per_unit),
            TravelCost::Explicit { .. } => Err(PatchError::ExplicitTravel),
        }
    }

    /// Applies `amend` to the cached frozen view, if one exists, after
    /// the object arrays were patched: in place when this instance
    /// holds the only handle, on a private copy (`Arc::make_mut`) when
    /// a [`freeze`](Instance::freeze) handle is still held elsewhere, so
    /// that handle keeps seeing the unpatched view.
    fn amend_flat(&mut self, amend: impl FnOnce(&mut FlatInstance, &Instance)) {
        if let Some(mut flat) = self.flat.take() {
            amend(Arc::make_mut(&mut flat), self);
            let _ = self.flat.set(flat);
        }
    }

    /// Sets the capacity of event `v` in place: one cell of the object
    /// arrays and one of the frozen view.
    pub fn patch_set_capacity(&mut self, v: EventId, capacity: u32) -> Result<(), PatchError> {
        if v.index() >= self.events.len() {
            return Err(PatchError::UnknownEvent(v));
        }
        if capacity == 0 {
            return Err(PatchError::ZeroCapacity);
        }
        self.events[v.index()].capacity = capacity;
        self.amend_flat(|f, _| f.amend_capacity(v, capacity));
        Ok(())
    }

    /// Sets `μ(v, u)` in place: one cell of the object arrays and one
    /// of the frozen view.
    pub fn patch_set_mu(&mut self, v: EventId, u: UserId, value: f64) -> Result<(), PatchError> {
        let nv = self.events.len();
        if v.index() >= nv {
            return Err(PatchError::UnknownEvent(v));
        }
        if u.index() >= self.users.len() {
            return Err(PatchError::UnknownUser(u));
        }
        let val = value as f32;
        if !val.is_finite() || !(0.0..=1.0).contains(&val) {
            return Err(PatchError::BadUtility(value));
        }
        self.mu[u.index() * nv + v.index()] = val;
        self.amend_flat(|f, _| f.amend_mu(v, u, val));
        Ok(())
    }

    /// Appends a new event at dense index `|V|`, deriving only its μ
    /// column, its row/column of the event-cost matrix, and its legs in
    /// the frozen view. `mu_col[u]` is the new event's utility for user
    /// `u` (dense order). Returns the new event's id.
    pub fn patch_add_event(
        &mut self,
        capacity: u32,
        location: Point,
        time: TimeInterval,
        fee: u32,
        mu_col: &[f32],
    ) -> Result<EventId, PatchError> {
        let time_per_unit = self.grid_time_per_unit()?;
        if capacity == 0 {
            return Err(PatchError::ZeroCapacity);
        }
        if fee == u32::MAX {
            return Err(PatchError::InfiniteFee);
        }
        let nu = self.users.len();
        if mu_col.len() != nu {
            return Err(PatchError::MuShape { expected: nu, got: mu_col.len() });
        }
        check_mu_values(mu_col)?;

        let old_nv = self.events.len();
        widen_rows(&mut self.mu, nu, old_nv, |ui| mu_col[ui]);
        self.events.push(Event::new(capacity, location, time));
        if !self.fees.is_empty() {
            self.fees.push(fee);
        } else if fee > 0 {
            let mut f = vec![0u32; old_nv];
            f.push(fee);
            self.fees = f;
        }

        // event-cost matrix: one derived column, then one derived row
        let (events, fees) = (&self.events, &self.fees);
        let cost = |i, j| grid_directed_cost(events, time_per_unit, fees, i, j);
        widen_rows(&mut self.event_costs, old_nv, old_nv, |i| cost(i, old_nv));
        self.event_costs.extend((0..=old_nv).map(|j| cost(old_nv, j)));
        self.temporal = TemporalIndex::build(&self.events);

        let v = EventId(old_nv as u32);
        self.amend_flat(|f, inst| f.amend_add_event(inst, v));
        Ok(v)
    }

    /// Swap-removes event `v`: the last event moves into `v`'s dense
    /// slot and every matrix is re-strided in place (no cost is
    /// recomputed). Returns the **old** dense id of the moved event so
    /// the caller can remap (`None` when `v` was last — a pure pop, the
    /// exact inverse of [`Instance::patch_add_event`]).
    pub fn patch_remove_event(&mut self, v: EventId) -> Result<Option<EventId>, PatchError> {
        let nv = self.events.len();
        if v.index() >= nv {
            return Err(PatchError::UnknownEvent(v));
        }
        self.grid_time_per_unit()?;
        let last = nv - 1;
        self.events.swap_remove(v.index());
        if !self.fees.is_empty() {
            self.fees.swap_remove(v.index());
            // an all-zero fee vector is semantically identical to the
            // empty one; normalizing keeps add∘remove byte-identical
            if self.fees.iter().all(|&f| f == 0) {
                self.fees = Vec::new();
            }
        }

        narrow_rows(&mut self.mu, self.users.len(), nv, v.index());
        swap_remove_row(&mut self.event_costs, v.index(), last, nv);
        narrow_rows(&mut self.event_costs, last, nv, v.index());
        self.temporal = TemporalIndex::build(&self.events);

        self.amend_flat(|f, _| f.amend_remove_event(v));
        Ok(if v.index() == last { None } else { Some(EventId(last as u32)) })
    }

    /// Appends a new user at dense index `|U|`, deriving only their μ
    /// row and leg costs. `mu_row[v]` is the user's utility for event
    /// `v` (dense order). Returns the new user's id.
    pub fn patch_add_user(
        &mut self,
        location: Point,
        budget: Cost,
        mu_row: &[f32],
    ) -> Result<UserId, PatchError> {
        self.grid_time_per_unit()?;
        if budget.is_infinite() {
            return Err(PatchError::InfiniteBudget);
        }
        let nv = self.events.len();
        if mu_row.len() != nv {
            return Err(PatchError::MuShape { expected: nv, got: mu_row.len() });
        }
        check_mu_values(mu_row)?;

        self.users.push(User::new(location, budget));
        self.mu.extend_from_slice(mu_row);
        let u = UserId(self.users.len() as u32 - 1);
        self.amend_flat(|f, inst| f.amend_add_user(inst, u));
        Ok(u)
    }

    /// Swap-removes user `u` (the last user's row moves into `u`'s
    /// slot). Returns the old dense id of the moved user, or `None`
    /// when `u` was last — the exact inverse of
    /// [`Instance::patch_add_user`].
    pub fn patch_remove_user(&mut self, u: UserId) -> Result<Option<UserId>, PatchError> {
        let nu = self.users.len();
        if u.index() >= nu {
            return Err(PatchError::UnknownUser(u));
        }
        self.grid_time_per_unit()?;
        let last = nu - 1;
        self.users.swap_remove(u.index());
        swap_remove_row(&mut self.mu, u.index(), last, self.events.len());
        self.amend_flat(|f, _| f.amend_remove_user(u));
        Ok(if u.index() == last { None } else { Some(UserId(last as u32)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn fixture() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20));
        b.event(3, Point::new(5, 5), iv(5, 15));
        let u0 = b.user(Point::new(1, 1), Cost::new(80));
        let u1 = b.user(Point::new(8, 2), Cost::new(35));
        for v in 0..3 {
            b.utility(EventId(v), u0, 0.1 + 0.2 * f64::from(v));
            b.utility(EventId(v), u1, 0.9 - 0.2 * f64::from(v));
        }
        b.fee(EventId(1), 3);
        b.build().unwrap()
    }

    /// Rebuilds an instance from scratch out of the patched one's raw
    /// parts — the ground truth every patch must match.
    fn shadow(inst: &Instance) -> Instance {
        let mut b = InstanceBuilder::new();
        for e in inst.events() {
            b.event(e.capacity, e.location, e.time);
        }
        for u in inst.users() {
            b.user(u.location, u.budget);
        }
        let nv = inst.num_events();
        let mut mu = Vec::with_capacity(nv * inst.num_users());
        for u in inst.user_ids() {
            mu.extend_from_slice(inst.mu_row(u));
        }
        b.utility_matrix(mu);
        b.travel(inst.travel().clone());
        for (v, &f) in inst.fees().iter().enumerate() {
            b.fee(EventId(v as u32), f);
        }
        b.build().unwrap()
    }

    /// Full equality against the from-scratch rebuild: object arrays,
    /// the derived cost matrix, and the frozen SoA view.
    fn assert_matches_shadow(inst: &Instance) {
        let fresh = shadow(inst);
        assert_eq!(*inst, fresh, "object arrays diverged from a fresh build");
        for i in inst.event_ids() {
            for j in inst.event_ids() {
                assert_eq!(inst.cost_vv(i, j), fresh.cost_vv(i, j), "cost_vv({i}, {j})");
            }
        }
        assert_eq!(inst.temporal().len(), fresh.temporal().len());
        assert_eq!(
            *inst.freeze(),
            FlatInstance::build(&fresh),
            "amended frozen view diverged from a cold build"
        );
    }

    #[test]
    fn scalar_patches_amend_in_place() {
        let mut inst = fixture();
        let _warm = inst.freeze(); // exercise the amendment path
        inst.patch_set_capacity(EventId(1), 7).unwrap();
        assert_eq!(inst.event(EventId(1)).capacity, 7);
        inst.patch_set_mu(EventId(2), UserId(0), 0.42).unwrap();
        assert!((inst.mu(EventId(2), UserId(0)) - 0.42).abs() < 1e-6);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn add_event_derives_only_the_new_row_and_column() {
        let mut inst = fixture();
        let _warm = inst.freeze();
        let v = inst
            .patch_add_event(2, Point::new(3, 9), iv(22, 30), 5, &[0.8, 0.3])
            .unwrap();
        assert_eq!(v, EventId(3));
        assert_eq!(inst.num_events(), 4);
        assert_eq!(inst.fee(v), 5);
        assert!((inst.mu(v, UserId(0)) - 0.8).abs() < 1e-6);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn remove_event_swap_removes_and_reports_the_moved_id() {
        let mut inst = fixture();
        let _warm = inst.freeze();
        // removing a middle event moves the last one into its slot
        let moved = inst.patch_remove_event(EventId(0)).unwrap();
        assert_eq!(moved, Some(EventId(2)));
        assert_eq!(inst.num_events(), 2);
        assert_matches_shadow(&inst);
        // removing the (new) last event is a pure pop
        let moved = inst.patch_remove_event(EventId(1)).unwrap();
        assert_eq!(moved, None);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn add_then_remove_event_restores_the_instance_exactly() {
        // the metamorphic identity the delta engine leans on: append at
        // the tail, remove from the tail → byte-identical instance
        let mut inst = fixture();
        let _warm = inst.freeze();
        let pristine = inst.clone();
        let v = inst
            .patch_add_event(2, Point::new(3, 9), iv(22, 30), 5, &[0.8, 0.3])
            .unwrap();
        assert_ne!(inst, pristine);
        assert_eq!(inst.patch_remove_event(v).unwrap(), None);
        assert_eq!(inst, pristine);
        for i in pristine.event_ids() {
            for j in pristine.event_ids() {
                assert_eq!(inst.cost_vv(i, j), pristine.cost_vv(i, j));
            }
        }
        assert_matches_shadow(&inst);
    }

    #[test]
    fn user_patches_roundtrip() {
        let mut inst = fixture();
        let _warm = inst.freeze();
        let u = inst.patch_add_user(Point::new(2, 7), Cost::new(60), &[0.5, 0.0, 0.9]).unwrap();
        assert_eq!(u, UserId(2));
        assert_matches_shadow(&inst);
        let moved = inst.patch_remove_user(UserId(0)).unwrap();
        assert_eq!(moved, Some(UserId(2)));
        assert_matches_shadow(&inst);
        let moved = inst.patch_remove_user(UserId(1)).unwrap();
        assert_eq!(moved, None);
        assert_matches_shadow(&inst);
    }

    /// A named patch.
    type Patch = (&'static str, fn(&mut Instance));

    /// One patch of each of the six kinds, for [`fixture`].
    fn each_patch_kind() -> [Patch; 6] {
        [
            ("set_capacity", |i| i.patch_set_capacity(EventId(1), 7).unwrap()),
            ("set_mu", |i| i.patch_set_mu(EventId(2), UserId(0), 0.42).unwrap()),
            ("add_event", |i| {
                let col = vec![0.6; i.num_users()];
                i.patch_add_event(2, Point::new(3, 9), iv(22, 30), 5, &col).unwrap();
            }),
            ("remove_event", |i| {
                assert_eq!(i.patch_remove_event(EventId(0)), Ok(Some(EventId(2))));
            }),
            ("add_user", |i| {
                let row = vec![0.5; i.num_events()];
                i.patch_add_user(Point::new(2, 7), Cost::new(60), &row).unwrap();
            }),
            ("remove_user", |i| {
                assert_eq!(i.patch_remove_user(UserId(0)), Ok(Some(UserId(1))));
            }),
        ]
    }

    #[test]
    fn every_patch_amends_an_unshared_view_in_place() {
        for (kind, patch) in each_patch_kind() {
            let mut inst = fixture();
            let view = Arc::as_ptr(&inst.freeze()); // the handle drops here
            patch(&mut inst);
            assert_eq!(Arc::as_ptr(&inst.freeze()), view, "{kind}: the view was copied");
            assert_eq!(*inst.freeze(), FlatInstance::build(&shadow(&inst)), "{kind}");
        }
    }

    #[test]
    fn every_patch_copies_a_view_whose_handle_is_held() {
        for (kind, patch) in each_patch_kind() {
            let mut inst = fixture();
            let held = inst.freeze();
            let before = FlatInstance::build(&shadow(&inst));
            patch(&mut inst);
            assert_eq!(*held, before, "{kind}: a held handle saw the patch");
            assert!(!Arc::ptr_eq(&held, &inst.freeze()), "{kind}");
            assert_eq!(*inst.freeze(), FlatInstance::build(&shadow(&inst)), "{kind}");
        }
    }

    /// Where a removal or an in-range scalar patch lands: the first,
    /// a middle or the last index, or anywhere.
    fn pick(rng: &mut StdRng, n: usize) -> usize {
        match rng.gen_range(0..4u32) {
            0 => 0,
            1 => n / 2,
            2 => n - 1,
            _ => rng.gen_range(0..n),
        }
    }

    /// μ as one `Vec` per user, patched with `Vec`'s own `push` and
    /// `swap_remove`. The shadow build copies the object μ matrix, so
    /// it cannot catch a re-stride that scrambles μ; this model can.
    type MuModel = Vec<Vec<f32>>;

    /// One seeded patch on a grid instance, mirrored on `model`.
    /// Removals keep at least one event and one user.
    fn random_patch(inst: &mut Instance, model: &mut MuModel, rng: &mut StdRng, add_bias: f64) {
        let (nv, nu) = (inst.num_events(), inst.num_users());
        let point = |rng: &mut StdRng| Point::new(rng.gen_range(0..40i32), rng.gen_range(0..40i32));
        match rng.gen_range(0..6u32) {
            0 => {
                let v = EventId(pick(rng, nv) as u32);
                inst.patch_set_capacity(v, rng.gen_range(1..9u32)).unwrap();
            }
            1 => {
                let (v, u) = (pick(rng, nv), pick(rng, nu));
                let mu = rng.gen_range(0.0..1.0);
                inst.patch_set_mu(EventId(v as u32), UserId(u as u32), mu).unwrap();
                model[u][v] = mu as f32;
            }
            2 | 3 if nv == 1 || rng.gen_bool(add_bias) => {
                let t = rng.gen_range(0..200i64);
                let col: Vec<f32> = (0..nu).map(|_| rng.gen_range(0.0..1.0) as f32).collect();
                let fee = if rng.gen_bool(0.3) { rng.gen_range(1..6u32) } else { 0 };
                let cap = rng.gen_range(1..9u32);
                let at = point(rng);
                let len = rng.gen_range(1..30i64);
                inst.patch_add_event(cap, at, iv(t, t + len), fee, &col).unwrap();
                model.iter_mut().zip(&col).for_each(|(row, &m)| row.push(m));
            }
            2 | 3 => remove_event(inst, model, pick(rng, nv)),
            _ if nu == 1 || rng.gen_bool(add_bias) => {
                let row: Vec<f32> = (0..nv).map(|_| rng.gen_range(0.0..1.0) as f32).collect();
                let at = point(rng);
                inst.patch_add_user(at, Cost::new(rng.gen_range(10..200u32)), &row).unwrap();
                model.push(row);
            }
            _ => remove_user(inst, model, pick(rng, nu)),
        }
    }

    fn remove_event(inst: &mut Instance, model: &mut MuModel, v: usize) {
        inst.patch_remove_event(EventId(v as u32)).unwrap();
        for row in model.iter_mut() {
            row.swap_remove(v);
        }
    }

    fn remove_user(inst: &mut Instance, model: &mut MuModel, u: usize) {
        inst.patch_remove_user(UserId(u as u32)).unwrap();
        model.swap_remove(u);
    }

    /// Applies `patch` and compares the result with a cold build and
    /// with `model`. Every third step holds a frozen handle across the
    /// patch (copy-on-write, and the handle must keep the old view);
    /// the rest amend in place.
    fn checked_step(
        inst: &mut Instance,
        model: &mut MuModel,
        step: usize,
        patch: impl FnOnce(&mut Instance, &mut MuModel),
    ) {
        let held =
            step.is_multiple_of(3).then(|| (inst.freeze(), FlatInstance::build(&shadow(inst))));
        patch(inst, model);
        if let Some((held, before)) = held {
            assert_eq!(*held, before, "step {step}: a held handle saw the patch");
        }
        assert_matches_shadow(inst);
        let rows: Vec<&[f32]> = inst.user_ids().map(|u| inst.mu_row(u)).collect();
        assert_eq!(rows, *model, "step {step}: μ diverged from the model");
    }

    #[test]
    fn seeded_patch_streams_match_a_cold_build_after_every_step() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut inst = fixture();
        // temporal reachability, so not every ordered vv cell is finite
        inst.travel = TravelCost::Grid { time_per_unit: 1 };
        inst = shadow(&inst);
        let mut model: MuModel = inst.user_ids().map(|u| inst.mu_row(u).to_vec()).collect();
        // grow past 64 events (two conflict words), then mix
        let mut widest = 0;
        let mut step = 0;
        for (steps, add_bias) in [(240, 0.95), (200, 0.5)] {
            for _ in 0..steps {
                checked_step(&mut inst, &mut model, step, |i, m| {
                    random_patch(i, m, &mut rng, add_bias);
                });
                widest = widest.max(inst.num_events());
                step += 1;
            }
        }
        assert!(widest > 64, "the stream never needed a second conflict word");
        // then remove down to one event and one user
        while inst.num_events() > 1 || inst.num_users() > 1 {
            let (nv, nu) = (inst.num_events(), inst.num_users());
            if nu == 1 || (nv > 1 && rng.gen_bool(0.5)) {
                let v = pick(&mut rng, nv);
                checked_step(&mut inst, &mut model, step, |i, m| remove_event(i, m, v));
            } else {
                let u = pick(&mut rng, nu);
                checked_step(&mut inst, &mut model, step, |i, m| remove_user(i, m, u));
            }
            step += 1;
        }
    }

    #[test]
    fn patches_without_a_warm_freeze_still_match() {
        let mut inst = fixture();
        inst.patch_add_event(1, Point::new(9, 9), iv(30, 40), 0, &[0.2, 0.2]).unwrap();
        inst.patch_set_capacity(EventId(0), 5).unwrap();
        assert_matches_shadow(&inst); // freeze() builds cold here
    }

    #[test]
    fn invalid_patches_are_refused_and_leave_state_untouched() {
        let mut inst = fixture();
        let before = inst.clone();
        assert_eq!(
            inst.patch_set_capacity(EventId(9), 1).unwrap_err(),
            PatchError::UnknownEvent(EventId(9))
        );
        assert_eq!(inst.patch_set_capacity(EventId(0), 0).unwrap_err(), PatchError::ZeroCapacity);
        assert!(matches!(
            inst.patch_set_mu(EventId(0), UserId(0), 1.5).unwrap_err(),
            PatchError::BadUtility(_)
        ));
        assert!(matches!(
            inst.patch_add_event(1, Point::ORIGIN, iv(0, 1), 0, &[0.1]).unwrap_err(),
            PatchError::MuShape { expected: 2, got: 1 }
        ));
        assert_eq!(
            inst.patch_add_event(1, Point::ORIGIN, iv(0, 1), u32::MAX, &[0.1, 0.1]).unwrap_err(),
            PatchError::InfiniteFee
        );
        assert_eq!(
            inst.patch_add_user(Point::ORIGIN, Cost::INFINITE, &[0.1, 0.1, 0.1]).unwrap_err(),
            PatchError::InfiniteBudget
        );
        assert_eq!(inst, before);
    }

    #[test]
    fn structural_patches_require_grid_travel() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.event(1, Point::ORIGIN, iv(2, 3));
        b.user(Point::ORIGIN, Cost::new(50));
        let inf = Cost::INFINITE;
        b.travel(TravelCost::Explicit {
            user_event: vec![Cost::new(2), Cost::new(3)],
            event_event: vec![inf, Cost::new(4), inf, inf],
        });
        let mut inst = b.build().unwrap();
        assert_eq!(
            inst.patch_add_event(1, Point::ORIGIN, iv(4, 5), 0, &[0.1]).unwrap_err(),
            PatchError::ExplicitTravel
        );
        assert_eq!(inst.patch_remove_event(EventId(0)).unwrap_err(), PatchError::ExplicitTravel);
        // scalar patches still work under explicit travel
        inst.patch_set_capacity(EventId(0), 4).unwrap();
        inst.patch_set_mu(EventId(0), UserId(0), 0.25).unwrap();
        assert_eq!(inst.event(EventId(0)).capacity, 4);
    }
}
