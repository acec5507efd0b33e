//! The delta-solve engine: warm state + bounded repair + drift-gated
//! fallback.
//!
//! [`DeltaEngine`] keeps a live [`Instance`] (with its amended frozen
//! view), the current [`Planning`], stable↔dense id maps, and
//! per-assignment recency stamps. Each [`Mutation`] is applied in three
//! steps:
//!
//! 1. **Patch** — the instance and its frozen view are amended in place
//!    through the `patch_*` methods of `usep-core` (derived edges only,
//!    never a rebuild or a copy of the view) and the planning's
//!    schedules are moved, remapped to the post-patch dense ids.
//! 2. **Release** — assignments the mutation invalidates are unassigned
//!    deterministically: cancelled events release every attendee,
//!    capacity shrinks evict in LIFO stamp order, departures release
//!    the departing user's schedule, μ-zeroing releases the one pair.
//!    All released utility accrues to the churn accumulator. Steps 1
//!    and 2 record the mutation's *dirty set*: the events whose
//!    capacity was freed, raised or created, and the users whose
//!    schedule shrank, who arrived, or whose μ rose on an unassigned
//!    pair.
//! 3. **Repair or fallback** — if the drift metric (accumulated churn
//!    over `min(Ω_anchor, Ω_now)`, where the anchor is Ω at the last
//!    full resolve) stays below [`DeltaConfig::fallback_threshold`], a
//!    single RatioGreedy augmentation pass over the residual events
//!    re-fills freed capacity, and whatever utility it recovers pays
//!    the churn back down. The pass only ever adds assignments and is
//!    seeded from the dirty set alone: the planning had no valid pair
//!    left before the mutation, so only pairs touching the dirty set
//!    can be valid, and the pass accepts exactly what one seeded with
//!    every residual event and user would (DESIGN.md §16). Otherwise
//!    the engine falls back to a cold solve with
//!    [`DeltaConfig::cold`] (DeGreedy+RG by default), resets the churn
//!    accumulator and re-anchors Ω.
//!
//! Because the repair pass is *augmentation-stable* (re-running it on a
//! planning it just produced adds nothing), applying a mutation and its
//! exact inverse under the repair path restores the planning
//! byte-for-byte — the metamorphic suites assert this. The cold solve
//! is RatioGreedy or ends in RatioGreedy's pass, run until its heap is
//! empty, so the planning it hands the first repair is
//! augmentation-stable too.

use std::collections::HashMap;

use usep_algos::{augment_events_with_ratio_greedy, solve_with_probe, Algorithm, Seed};
use usep_core::{Cost, EventId, Instance, PatchError, Planning, Schedule, UserId};
use usep_trace::{Counter, Probe};

use crate::mutation::{MuEntry, Mutation};

/// Histogram key for the per-mutation touched-entity count (exposed by
/// `usep-serve`'s metrics plane as `usep_delta_touched_entities`).
pub const TOUCHED_HISTOGRAM: &str = "delta.touched";

/// Tuning knobs for the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaConfig {
    /// Fall back to a full resolve when `churn / Ω_anchor` exceeds
    /// this. `0.0` forces a fallback on any churn; `f64::INFINITY`
    /// pins the engine to the repair path (the metamorphic tests use
    /// this to exercise pure repairs).
    pub fallback_threshold: f64,
    /// The cold solve run at open and at every fallback. It must be
    /// [`Algorithm::RatioGreedy`] or a `+RG` variant, so that the cold
    /// planning is augmentation-stable: a repair seeds only the
    /// mutation's dirty set, which finds every valid pair only when the
    /// planning before the mutation had none left (DESIGN.md §16). The
    /// default, DeGreedy+RG, beats RatioGreedy on Ω, time and heap;
    /// sessions journaled before opens named their cold solve resume
    /// with RatioGreedy.
    pub cold: Algorithm,
}

impl Default for DeltaConfig {
    fn default() -> DeltaConfig {
        DeltaConfig { fallback_threshold: 0.3, cold: Algorithm::DeGreedyRG }
    }
}

/// Why a mutation was rejected. Rejected mutations leave the engine
/// exactly as it was.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaError {
    /// No live event with this stable id.
    UnknownEvent(u32),
    /// No live user with this stable id.
    UnknownUser(u32),
    /// The underlying instance patch was refused.
    Patch(PatchError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownEvent(id) => write!(f, "unknown stable event id {id}"),
            DeltaError::UnknownUser(id) => write!(f, "unknown stable user id {id}"),
            DeltaError::Patch(e) => write!(f, "instance patch refused: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<PatchError> for DeltaError {
    fn from(e: PatchError) -> DeltaError {
        DeltaError::Patch(e)
    }
}

/// How one mutation was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Bounded repair: patch + release + one augmentation pass.
    Repaired,
    /// Drift exceeded the threshold; a cold solve replaced the planning.
    Fallback,
}

/// Per-mutation report.
#[derive(Clone, Copy, Debug)]
pub struct MutationOutcome {
    /// Repair or fallback.
    pub kind: RepairKind,
    /// Entities (events + users) the mutation structurally touched,
    /// plus assignments released and added — the bounded-work measure
    /// recorded to the [`TOUCHED_HISTOGRAM`].
    pub touched: usize,
    /// Assignments released by the mutation.
    pub evicted: usize,
    /// Assignments added by the repair pass (0 on fallback).
    pub added: usize,
    /// Drift `churn / Ω_anchor` *before* the repair-or-fallback
    /// decision (the value the decision was made on).
    pub drift: f64,
    /// Ω after absorbing the mutation.
    pub omega: f64,
}

/// A mutation patched into the instance and released from the
/// planning, waiting for its repair or fallback: what
/// [`DeltaEngine::patch_and_release`] hands to
/// [`DeltaEngine::repair_or_fallback`].
#[doc(hidden)]
#[derive(Debug)]
#[must_use = "the engine is mid-mutation until `repair_or_fallback` takes this"]
pub struct Released {
    touched: usize,
    evicted: usize,
    /// Events whose capacity the mutation freed, raised or created, in
    /// post-patch dense ids.
    dirty_events: Vec<EventId>,
    /// Users whose schedule shrank, who arrived, or whose μ rose on an
    /// unassigned pair, in post-patch dense ids.
    dirty_users: Vec<UserId>,
}

/// Running totals across the engine's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Mutations absorbed.
    pub mutations: u64,
    /// Mutations absorbed via bounded repair.
    pub repairs: u64,
    /// Mutations that triggered a full resolve.
    pub fallbacks: u64,
    /// Assignments released across all mutations.
    pub evicted: u64,
    /// Assignments added by repair passes.
    pub added: u64,
}

impl DeltaStats {
    /// Fraction of mutations absorbed without a full resolve.
    pub fn repair_fraction(&self) -> f64 {
        if self.mutations == 0 {
            1.0
        } else {
            self.repairs as f64 / self.mutations as f64
        }
    }
}

/// The warm-state delta-solve engine. See the module docs for the
/// repair pipeline.
#[derive(Debug)]
pub struct DeltaEngine {
    cfg: DeltaConfig,
    inst: Instance,
    planning: Planning,
    /// dense event index → stable id (mirrors `inst.events` ordering).
    event_stable: Vec<u32>,
    /// stable event id → dense index.
    event_dense: HashMap<u32, EventId>,
    user_stable: Vec<u32>,
    user_dense: HashMap<u32, UserId>,
    next_event_id: u32,
    next_user_id: u32,
    /// `(stable_user, stable_event) → recency stamp`; higher = more
    /// recently assigned. Drives LIFO eviction on capacity shrink.
    stamps: HashMap<(u32, u32), u64>,
    seq: u64,
    /// Utility released and not yet recovered by repair passes since
    /// the last full resolve.
    churned: f64,
    /// Ω at the last full resolve — the drift denominator.
    omega_anchor: f64,
    stats: DeltaStats,
}

impl DeltaEngine {
    /// Builds warm state around `inst`: solves it cold with
    /// [`DeltaConfig::cold`] and stamps the resulting assignments.
    /// Initial entities get stable ids `0..n` in dense order.
    pub fn new(inst: Instance, cfg: DeltaConfig, probe: &dyn Probe) -> DeltaEngine {
        let planning = solve_with_probe(cfg.cold, &inst, probe);
        let nv = inst.num_events();
        let nu = inst.num_users();
        let mut engine = DeltaEngine {
            cfg,
            inst,
            planning,
            event_stable: (0..nv as u32).collect(),
            event_dense: (0..nv as u32).map(|i| (i, EventId(i))).collect(),
            user_stable: (0..nu as u32).collect(),
            user_dense: (0..nu as u32).map(|i| (i, UserId(i))).collect(),
            next_event_id: nv as u32,
            next_user_id: nu as u32,
            stamps: HashMap::new(),
            seq: 0,
            churned: 0.0,
            omega_anchor: 0.0,
            stats: DeltaStats::default(),
        };
        engine.restamp();
        engine.omega_anchor = engine.planning.omega(&engine.inst);
        engine
    }

    /// The live instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The current planning.
    pub fn planning(&self) -> &Planning {
        &self.planning
    }

    /// Current Ω.
    pub fn omega(&self) -> f64 {
        self.planning.omega(&self.inst)
    }

    /// Lifetime totals.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Current drift: accumulated surviving-user churn over
    /// `min(Ω_anchor, Ω_now)`. The `min` keeps the denominator honest
    /// when mutations shrink the instance — churn that looked small
    /// against the Ω of a richer past instance can dominate the Ω
    /// actually attainable now, and that is exactly when a full
    /// resolve pays for itself.
    pub fn drift(&self) -> f64 {
        if self.churned <= 0.0 {
            return 0.0;
        }
        let denom = self.omega_anchor.min(self.planning.omega(&self.inst));
        self.churned / denom.max(f64::MIN_POSITIVE)
    }

    /// Stable ids of live events, in dense order.
    pub fn live_events(&self) -> &[u32] {
        &self.event_stable
    }

    /// Stable ids of live users, in dense order.
    pub fn live_users(&self) -> &[u32] {
        &self.user_stable
    }

    /// Dense index of a stable event id.
    pub fn dense_event(&self, stable: u32) -> Result<EventId, DeltaError> {
        self.event_dense.get(&stable).copied().ok_or(DeltaError::UnknownEvent(stable))
    }

    /// Dense index of a stable user id.
    pub fn dense_user(&self, stable: u32) -> Result<UserId, DeltaError> {
        self.user_dense.get(&stable).copied().ok_or(DeltaError::UnknownUser(stable))
    }

    /// Recency stamps of the live assignments, keyed by `(stable user,
    /// stable event)`; higher is more recent.
    #[doc(hidden)]
    pub fn stamps(&self) -> &HashMap<(u32, u32), u64> {
        &self.stamps
    }

    /// Absorbs one mutation: patch, release, then repair or fall back.
    pub fn apply(&mut self, m: &Mutation, probe: &dyn Probe) -> Result<MutationOutcome, DeltaError> {
        let released = self.patch_and_release(m, probe)?;
        Ok(self.repair_or_fallback(released, probe))
    }

    /// Steps 1 and 2 of [`apply`](Self::apply): patch and release,
    /// recording what the mutation made dirty. Split out so tests can
    /// inspect the released planning; the engine is mid-mutation until
    /// [`repair_or_fallback`](Self::repair_or_fallback) takes the
    /// result.
    #[doc(hidden)]
    pub fn patch_and_release(
        &mut self,
        m: &Mutation,
        probe: &dyn Probe,
    ) -> Result<Released, DeltaError> {
        // Validate up front so a refused mutation leaves no partial
        // state behind (the release step below mutates the planning
        // before the patch runs).
        self.precheck(m)?;

        probe.count(Counter::DeltaMutation, 1);
        self.stats.mutations += 1;
        let touched;
        let mut evicted = 0usize;
        let mut dirty_events = Vec::new();
        let mut dirty_users = Vec::new();

        match m {
            Mutation::EventAdd { capacity, location, time, fee, mu } => {
                let col = self.dense_mu_col(mu)?;
                let v = self.inst.patch_add_event(*capacity, *location, *time, *fee, &col)?;
                let stable = self.next_event_id;
                self.next_event_id += 1;
                self.event_stable.push(stable);
                self.event_dense.insert(stable, v);
                // re-key the planning so its load vector covers the new event
                self.rekey_planning(|_| {});
                dirty_events.push(v);
                touched = 1;
            }
            Mutation::EventRemove { event } => {
                let v = self.dense_event(*event)?;
                dirty_users = self.release_attendees(v, 0, probe);
                evicted = dirty_users.len();
                let moved = self.inst.patch_remove_event(v)?;
                self.event_dense.remove(event);
                self.event_stable.swap_remove(v.index());
                if moved.is_some() {
                    // the old tail event moved into v's dense slot
                    self.event_dense.insert(self.event_stable[v.index()], v);
                }
                self.rekey_planning(|schedules| {
                    let Some(old_dense) = moved else { return };
                    for s in schedules.iter_mut().filter(|s| s.contains(old_dense)) {
                        let remapped = s
                            .events()
                            .iter()
                            .map(|&e| if e == old_dense { v } else { e })
                            .collect();
                        *s = Schedule::from_events_unchecked(remapped);
                    }
                });
                touched = 1 + evicted;
            }
            Mutation::CapacityChange { event, capacity } => {
                let v = self.dense_event(*event)?;
                if *capacity > self.inst.event(v).capacity {
                    dirty_events.push(v);
                }
                dirty_users = self.release_attendees(v, *capacity, probe);
                evicted = dirty_users.len();
                self.inst.patch_set_capacity(v, *capacity)?;
                touched = 1 + evicted;
            }
            Mutation::UserArrive { location, budget, mu } => {
                let row = self.dense_mu_row(mu)?;
                let u = self.inst.patch_add_user(*location, Cost::new(*budget), &row)?;
                let stable = self.next_user_id;
                self.next_user_id += 1;
                self.user_stable.push(stable);
                self.user_dense.insert(stable, u);
                self.rekey_planning(|schedules| schedules.push(Schedule::new()));
                // displacement potential: utility this arrival could
                // only unlock by swapping out a weaker incumbent of a
                // full event — a move the augmentation pass never
                // makes, so it must count toward drift or the engine
                // would sail blindly past a cold solve that reseats
                self.churned += self.displacement_potential(u);
                dirty_users.push(u);
                touched = 1;
            }
            Mutation::UserDepart { user } => {
                let u = self.dense_user(*user)?;
                // release their assignments; the freed capacity may be
                // reallocatable to other users, so this counts as churn
                // like any other release (the repair pass pays it back
                // down by whatever utility it recovers)
                dirty_events = self.planning.schedule(u).events().to_vec();
                for &v in &dirty_events {
                    let mu = self.inst.mu(v, u);
                    self.planning.unassign(u, v);
                    self.note_release(u, v, mu, probe);
                    evicted += 1;
                }
                let moved = self.inst.patch_remove_user(u)?;
                self.user_dense.remove(user);
                self.user_stable.swap_remove(u.index());
                if moved.is_some() {
                    self.user_dense.insert(self.user_stable[u.index()], u);
                }
                self.rekey_planning(|schedules| {
                    schedules.swap_remove(u.index());
                });
                touched = 1 + evicted;
            }
            Mutation::MuUpdate { event, user, mu } => {
                let v = self.dense_event(*event)?;
                let u = self.dense_user(*user)?;
                let old = self.inst.mu(v, u);
                let new = f64::from(*mu);
                let was_assigned = self.planning.schedule(u).contains(v);
                if was_assigned && *mu <= 0.0 {
                    self.planning.unassign(u, v);
                    self.note_release(u, v, old, probe);
                    evicted = 1;
                    dirty_events.push(v);
                    dirty_users.push(u);
                } else if !was_assigned && new > old {
                    dirty_users.push(u);
                }
                self.inst.patch_set_mu(v, u, new)?;
                if was_assigned && *mu > 0.0 && new < old {
                    // devaluation: the pair keeps its seat but the seat
                    // is now worth less — a reseating might hand it to
                    // a stronger candidate, so the lost value counts
                    // toward drift
                    self.churned += old - new;
                } else if !was_assigned
                    && new > old
                    && !self.planning.can_assign(&self.inst, u, v)
                {
                    // raising μ of an unassigned pair that an existing
                    // assignment blocks (capacity, conflict or budget):
                    // only a reseating realizes the gain, so the
                    // blocked share counts toward drift
                    self.churned += self.reseat_gain(u, v, new);
                }
                touched = 1 + evicted;
            }
        }
        Ok(Released { touched, evicted, dirty_events, dirty_users })
    }

    /// Step 3 of [`apply`](Self::apply): repair what
    /// [`patch_and_release`](Self::patch_and_release) left, or fall
    /// back to a cold solve when drift says so.
    #[doc(hidden)]
    pub fn repair_or_fallback(&mut self, released: Released, probe: &dyn Probe) -> MutationOutcome {
        let Released { touched, evicted, dirty_events, dirty_users } = released;
        let drift = self.drift();
        let outcome = if drift > self.cfg.fallback_threshold {
            self.full_resolve(probe);
            self.stats.evicted += evicted as u64;
            MutationOutcome {
                kind: RepairKind::Fallback,
                touched,
                evicted,
                added: 0,
                drift,
                omega: self.planning.omega(&self.inst),
            }
        } else {
            let (added, recovered) = self.augment_residual(&dirty_events, &dirty_users, probe);
            // recovered utility pays accumulated churn back down: churn
            // only persists when repairs fail to re-place what was
            // released, which is exactly when a full resolve will pay
            // for itself
            self.churned = (self.churned - recovered).max(0.0);
            self.stats.repairs += 1;
            self.stats.evicted += evicted as u64;
            self.stats.added += added as u64;
            probe.count(Counter::DeltaRepair, 1);
            MutationOutcome {
                kind: RepairKind::Repaired,
                touched: touched + added,
                evicted,
                added,
                drift,
                omega: self.planning.omega(&self.inst),
            }
        };
        probe.record(TOUCHED_HISTOGRAM, outcome.touched as f64);
        outcome
    }

    /// Rejects a mutation before any state changes. Mirrors the checks
    /// the patch layer performs, plus stable-id resolution.
    fn precheck(&self, m: &Mutation) -> Result<(), DeltaError> {
        let check_entries_users = |entries: &[MuEntry]| -> Result<(), DeltaError> {
            for e in entries {
                self.dense_user(e.id)?;
                if !e.mu.is_finite() || !(0.0..=1.0).contains(&e.mu) {
                    return Err(PatchError::BadUtility(f64::from(e.mu)).into());
                }
            }
            Ok(())
        };
        let grid_only = || -> Result<(), DeltaError> {
            match self.inst.travel() {
                usep_core::TravelCost::Grid { .. } => Ok(()),
                usep_core::TravelCost::Explicit { .. } => Err(PatchError::ExplicitTravel.into()),
            }
        };
        match m {
            Mutation::EventAdd { capacity, fee, mu, .. } => {
                grid_only()?;
                if *capacity == 0 {
                    return Err(PatchError::ZeroCapacity.into());
                }
                if *fee == u32::MAX {
                    return Err(PatchError::InfiniteFee.into());
                }
                check_entries_users(mu)
            }
            Mutation::EventRemove { event } => {
                grid_only()?;
                self.dense_event(*event).map(|_| ())
            }
            Mutation::CapacityChange { event, capacity } => {
                self.dense_event(*event)?;
                if *capacity == 0 {
                    return Err(PatchError::ZeroCapacity.into());
                }
                Ok(())
            }
            Mutation::UserArrive { budget, mu, .. } => {
                grid_only()?;
                if *budget == u32::MAX {
                    return Err(PatchError::InfiniteBudget.into());
                }
                for e in mu {
                    self.dense_event(e.id)?;
                    if !e.mu.is_finite() || !(0.0..=1.0).contains(&e.mu) {
                        return Err(PatchError::BadUtility(f64::from(e.mu)).into());
                    }
                }
                Ok(())
            }
            Mutation::UserDepart { user } => {
                grid_only()?;
                self.dense_user(*user).map(|_| ())
            }
            Mutation::MuUpdate { event, user, mu } => {
                self.dense_event(*event)?;
                self.dense_user(*user)?;
                if !mu.is_finite() || !(0.0..=1.0).contains(mu) {
                    return Err(PatchError::BadUtility(f64::from(*mu)).into());
                }
                Ok(())
            }
        }
    }

    /// Re-keys the planning to the patched instance: `edit` adjusts the
    /// schedules, which move out of the planning and back instead of
    /// being cloned, and the load vector is recounted.
    fn rekey_planning(&mut self, edit: impl FnOnce(&mut Vec<Schedule>)) {
        let mut schedules = std::mem::take(&mut self.planning).into_schedules();
        edit(&mut schedules);
        self.planning = Planning::from_schedules(&self.inst, schedules);
    }

    /// Sparse stable-id entries → dense μ column (one entry per user).
    fn dense_mu_col(&self, entries: &[MuEntry]) -> Result<Vec<f32>, DeltaError> {
        let mut col = vec![0.0f32; self.inst.num_users()];
        for e in entries {
            col[self.dense_user(e.id)?.index()] = e.mu;
        }
        Ok(col)
    }

    /// Sparse stable-id entries → dense μ row (one entry per event).
    fn dense_mu_row(&self, entries: &[MuEntry]) -> Result<Vec<f32>, DeltaError> {
        let mut row = vec![0.0f32; self.inst.num_events()];
        for e in entries {
            row[self.dense_event(e.id)?.index()] = e.mu;
        }
        Ok(row)
    }

    /// μ of event `v`'s weakest current attendee (∞ when empty).
    fn weakest_incumbent_mu(&self, v: EventId) -> f64 {
        let mut weakest = f64::INFINITY;
        for ui in 0..self.inst.num_users() {
            let u = UserId(ui as u32);
            if self.planning.schedule(u).contains(v) {
                let m = self.inst.mu(v, u);
                if m < weakest {
                    weakest = m;
                }
            }
        }
        weakest
    }

    /// Estimated utility a reseating could net from placing the
    /// currently blocked pair `(v, u)` worth `new`: the gain over the
    /// weakest incumbent when `v` is full, the gain over the best
    /// conflicting assignment in `u`'s schedule otherwise, and the
    /// full value when only budget blocks (a cold solve may drop
    /// cheaper events to afford it).
    fn reseat_gain(&self, u: UserId, v: EventId, new: f64) -> f64 {
        if self.planning.remaining_capacity(&self.inst, v) == 0 {
            let weakest = self.weakest_incumbent_mu(v);
            if weakest.is_finite() {
                return (new - weakest).max(0.0);
            }
        }
        let mut best_conflict = 0.0f64;
        for &w in self.planning.schedule(u).events() {
            if !self.inst.compatible(w, v) {
                best_conflict = best_conflict.max(self.inst.mu(w, u));
            }
        }
        if best_conflict > 0.0 {
            (new - best_conflict).max(0.0)
        } else {
            new
        }
    }

    /// Utility user `u` could add at **full** events by displacing the
    /// weakest incumbent — value only a reseating (full resolve) can
    /// realize, since the repair pass never removes assignments.
    fn displacement_potential(&self, u: UserId) -> f64 {
        // one pass to find each event's weakest incumbent
        let nv = self.inst.num_events();
        let mut min_mu = vec![f64::INFINITY; nv];
        for ui in 0..self.inst.num_users() {
            let attendee = UserId(ui as u32);
            for &v in self.planning.schedule(attendee).events() {
                let m = self.inst.mu(v, attendee);
                if m < min_mu[v.index()] {
                    min_mu[v.index()] = m;
                }
            }
        }
        let mut missed = 0.0;
        for v in self.inst.event_ids() {
            if self.planning.remaining_capacity(&self.inst, v) > 0 {
                continue; // the augmentation pass can reach this one
            }
            let mu_new = self.inst.mu(v, u);
            if mu_new > min_mu[v.index()] {
                missed += mu_new - min_mu[v.index()];
            }
        }
        missed
    }

    /// Unassigns attendees of `v` down to `keep` in LIFO stamp order
    /// (most recently assigned leave first). Returns the released users.
    fn release_attendees(&mut self, v: EventId, keep: u32, probe: &dyn Probe) -> Vec<UserId> {
        let load = self.planning.load(v);
        if load <= keep {
            return Vec::new();
        }
        let sv = self.event_stable[v.index()];
        let mut attendees: Vec<(u64, UserId)> = Vec::new();
        for ui in 0..self.inst.num_users() {
            let u = UserId(ui as u32);
            if self.planning.schedule(u).contains(v) {
                let stamp = self.stamps.get(&(self.user_stable[ui], sv)).copied().unwrap_or(0);
                attendees.push((stamp, u));
            }
        }
        // newest stamps first; dense index breaks (impossible) ties
        attendees.sort_by(|a, b| b.cmp(a));
        let excess = (load - keep) as usize;
        let released: Vec<UserId> = attendees.iter().take(excess).map(|&(_, u)| u).collect();
        for &u in &released {
            let mu = self.inst.mu(v, u);
            self.planning.unassign(u, v);
            self.note_release(u, v, mu, probe);
        }
        released
    }

    /// Books the release of one assignment: churn accrues, the stamp
    /// is dropped, the eviction is counted.
    fn note_release(&mut self, u: UserId, v: EventId, mu: f64, probe: &dyn Probe) {
        self.churned += mu;
        self.stamps.remove(&(self.user_stable[u.index()], self.event_stable[v.index()]));
        probe.count(Counter::DeltaEvict, 1);
    }

    /// One RatioGreedy augmentation pass over every event with residual
    /// capacity, seeded from the mutation's dirty events and users, and
    /// a stamp for each pair it adds. Returns the number of assignments
    /// added and the utility they recovered.
    fn augment_residual(
        &mut self,
        dirty_events: &[EventId],
        dirty_users: &[UserId],
        probe: &dyn Probe,
    ) -> (usize, f64) {
        let residual: Vec<EventId> = self
            .inst
            .event_ids()
            .filter(|&v| self.planning.remaining_capacity(&self.inst, v) > 0)
            .collect();
        if residual.is_empty() {
            return (0, 0.0);
        }
        let omega_before = self.planning.omega(&self.inst);
        let seed = Seed::Dirty { events: dirty_events, users: dirty_users };
        let mut added = augment_events_with_ratio_greedy(
            &self.inst,
            &mut self.planning,
            &residual,
            seed,
            probe,
        );
        // stamp in the planning's canonical order (user-major, then
        // schedule order), as `restamp` does: LIFO evictions read the
        // stamps, and a journal replayed on resume must evict as it did
        // when it was recorded
        let planning = &self.planning;
        added.sort_unstable_by_key(|&(u, v)| {
            (u, planning.schedule(u).events().iter().position(|&w| w == v))
        });
        for &(u, v) in &added {
            self.seq += 1;
            self.stamps
                .insert((self.user_stable[u.index()], self.event_stable[v.index()]), self.seq);
        }
        let recovered = (self.planning.omega(&self.inst) - omega_before).max(0.0);
        (added.len(), recovered)
    }

    /// Cold solve of the live instance with [`DeltaConfig::cold`]:
    /// replaces the planning, re-stamps every assignment, resets churn
    /// and re-anchors Ω.
    fn full_resolve(&mut self, probe: &dyn Probe) {
        probe.count(Counter::DeltaFallback, 1);
        self.stats.fallbacks += 1;
        self.planning = solve_with_probe(self.cfg.cold, &self.inst, probe);
        self.restamp();
        self.churned = 0.0;
        self.omega_anchor = self.planning.omega(&self.inst);
    }

    /// Rebuilds the stamp table in the planning's canonical assignment
    /// order (user-major, schedule time order) — the deterministic
    /// baseline every replica converges to after a full resolve.
    fn restamp(&mut self) {
        self.stamps.clear();
        self.seq = 0;
        let pairs: Vec<(UserId, EventId)> = self.planning.assignments().collect();
        for (u, v) in pairs {
            self.seq += 1;
            self.stamps
                .insert((self.user_stable[u.index()], self.event_stable[v.index()]), self.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{InstanceBuilder, Point, TimeInterval};
    use usep_trace::NOOP;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn fixture() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(6, 0), iv(15, 25));
        b.event(2, Point::new(3, 3), iv(30, 40));
        let u0 = b.user(Point::new(1, 1), Cost::new(100));
        let u1 = b.user(Point::new(5, 1), Cost::new(100));
        for v in 0..3u32 {
            b.utility(EventId(v), u0, 0.4 + 0.1 * f64::from(v));
            b.utility(EventId(v), u1, 0.9 - 0.2 * f64::from(v));
        }
        b.build().unwrap()
    }

    /// Two overlapping one-seat events and a later one: in DeGreedy's
    /// step 2 `u1` outbids `u0` for `vb`, which leaves `vc`'s seat to
    /// the `+RG` pass, so plain DeGreedy is not augmentation-stable here.
    fn contested() -> Instance {
        let mut b = InstanceBuilder::new();
        let vb = b.event(1, Point::ORIGIN, iv(0, 10));
        let vc = b.event(1, Point::ORIGIN, iv(5, 15));
        let vd = b.event(1, Point::ORIGIN, iv(20, 30));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(vb, u0, 0.6);
        b.utility(vc, u0, 0.5);
        b.utility(vd, u0, 0.4);
        b.utility(vb, u1, 0.9);
        b.build().unwrap()
    }

    fn engine() -> DeltaEngine {
        DeltaEngine::new(fixture(), DeltaConfig::default(), &NOOP)
    }

    /// Step 1 of DESIGN.md §16's dirty-seed argument: the planning a
    /// cold solve hands the first repair has no valid pair left.
    fn assert_augmentation_stable(e: &DeltaEngine) {
        let mut again = e.planning().clone();
        assert_eq!(usep_algos::augment_with_ratio_greedy(e.instance(), &mut again), 0);
    }

    #[test]
    fn warm_start_matches_the_cold_solver() {
        for inst in [fixture(), contested()] {
            let cold = usep_algos::solve(DeltaConfig::default().cold, &inst);
            let e = DeltaEngine::new(inst, DeltaConfig::default(), &NOOP);
            assert_eq!(*e.planning(), cold);
            assert!(e.planning().validate(e.instance()).is_ok());
            assert_eq!(e.drift(), 0.0);
            assert_augmentation_stable(&e);
        }
    }

    #[test]
    fn event_add_is_repaired_by_augmentation() {
        let mut e = engine();
        let before = e.omega();
        let out = e
            .apply(
                &Mutation::EventAdd {
                    capacity: 2,
                    location: Point::new(2, 2),
                    time: iv(50, 60),
                    fee: 0,
                    mu: vec![MuEntry { id: 0, mu: 0.8 }, MuEntry { id: 1, mu: 0.7 }],
                },
                &NOOP,
            )
            .unwrap();
        assert_eq!(out.kind, RepairKind::Repaired);
        assert!(out.added >= 1, "a pure addition should only grow the planning");
        assert!(e.omega() > before);
        assert!(e.planning().validate(e.instance()).is_ok());
    }

    #[test]
    fn event_remove_releases_attendees_and_remaps_dense_ids() {
        let mut e = engine();
        e.apply(&Mutation::EventRemove { event: 0 }, &NOOP).unwrap();
        assert_eq!(e.instance().num_events(), 2);
        // stable ids 1 and 2 still resolve, 0 does not
        assert!(e.dense_event(1).is_ok());
        assert!(e.dense_event(2).is_ok());
        assert_eq!(e.dense_event(0), Err(DeltaError::UnknownEvent(0)));
        assert!(e.planning().validate(e.instance()).is_ok());
    }

    #[test]
    fn capacity_shrink_evicts_lifo_and_stays_valid() {
        let mut e = engine();
        // event stable 0 has capacity 2; shrink to 1
        let out =
            e.apply(&Mutation::CapacityChange { event: 0, capacity: 1 }, &NOOP).unwrap();
        let v = e.dense_event(0).unwrap();
        assert!(e.planning().load(v) <= 1);
        assert!(out.evicted <= 1);
        assert!(e.planning().validate(e.instance()).is_ok());
    }

    #[test]
    fn mu_zeroing_releases_an_assigned_pair() {
        let mut e = engine();
        let v = e.dense_event(1).unwrap();
        // find an assigned attendee of stable event 1, if any
        let attendee = (0..e.instance().num_users())
            .map(|i| UserId(i as u32))
            .find(|&u| e.planning().schedule(u).contains(v));
        if let Some(u) = attendee {
            let su = e.live_users()[u.index()];
            let out = e.apply(&Mutation::MuUpdate { event: 1, user: su, mu: 0.0 }, &NOOP).unwrap();
            assert_eq!(out.evicted, 1);
        }
        assert!(e.planning().validate(e.instance()).is_ok());
    }

    #[test]
    fn user_departure_releases_their_schedule() {
        let mut e = engine();
        let u = e.dense_user(1).unwrap();
        let had = e.planning().schedule(u).len();
        let out = e.apply(&Mutation::UserDepart { user: 1 }, &NOOP).unwrap();
        assert_eq!(out.evicted, had, "every assignment of the departing user is released");
        assert_eq!(e.instance().num_users(), 1);
        assert!(e.dense_user(0).is_ok());
        assert_eq!(e.dense_user(1), Err(DeltaError::UnknownUser(1)));
        assert!(e.planning().validate(e.instance()).is_ok());
    }

    #[test]
    fn zero_threshold_forces_fallback_on_churn() {
        // each instance with an event that has attendees
        for (inst, event) in [(fixture(), 0), (contested(), 2)] {
            let cfg = DeltaConfig { fallback_threshold: 0.0, ..DeltaConfig::default() };
            let mut e = DeltaEngine::new(inst, cfg, &NOOP);
            // removing an event with attendees churns > 0 → fallback
            let out = e.apply(&Mutation::EventRemove { event }, &NOOP).unwrap();
            assert!(out.evicted > 0);
            assert_eq!(out.kind, RepairKind::Fallback);
            assert_eq!(e.stats().fallbacks, 1);
            // post-fallback the planning equals a cold solve of the live
            // instance
            let cold = usep_algos::solve(DeltaConfig::default().cold, e.instance());
            assert_eq!(*e.planning(), cold);
            assert_augmentation_stable(&e);
        }
    }

    #[test]
    fn rejected_mutations_leave_the_engine_untouched() {
        let mut e = engine();
        let planning = e.planning().clone();
        let stats = e.stats();
        assert_eq!(
            e.apply(&Mutation::EventRemove { event: 99 }, &NOOP).unwrap_err(),
            DeltaError::UnknownEvent(99)
        );
        assert_eq!(
            e.apply(&Mutation::CapacityChange { event: 0, capacity: 0 }, &NOOP).unwrap_err(),
            DeltaError::Patch(PatchError::ZeroCapacity)
        );
        assert_eq!(
            e.apply(
                &Mutation::MuUpdate { event: 0, user: 0, mu: 1.5 },
                &NOOP
            )
            .unwrap_err(),
            DeltaError::Patch(PatchError::BadUtility(1.5))
        );
        assert_eq!(
            e.apply(
                &Mutation::EventAdd {
                    capacity: 1,
                    location: Point::ORIGIN,
                    time: iv(0, 1),
                    fee: 0,
                    mu: vec![MuEntry { id: 77, mu: 0.5 }],
                },
                &NOOP
            )
            .unwrap_err(),
            DeltaError::UnknownUser(77)
        );
        assert_eq!(*e.planning(), planning);
        assert_eq!(e.stats(), stats);
    }

    #[test]
    fn stable_ids_survive_interleaved_structural_churn() {
        let mut e = engine();
        e.apply(&Mutation::EventRemove { event: 1 }, &NOOP).unwrap();
        e.apply(
            &Mutation::EventAdd {
                capacity: 1,
                location: Point::new(9, 9),
                time: iv(70, 80),
                fee: 2,
                mu: vec![MuEntry { id: 0, mu: 0.6 }],
            },
            &NOOP,
        )
        .unwrap();
        // the new event got a fresh stable id (3), id 1 stays dead
        assert!(e.dense_event(3).is_ok());
        assert_eq!(e.dense_event(1), Err(DeltaError::UnknownEvent(1)));
        e.apply(&Mutation::UserArrive {
            location: Point::new(4, 4),
            budget: 60,
            mu: vec![MuEntry { id: 3, mu: 0.9 }, MuEntry { id: 2, mu: 0.3 }],
        }, &NOOP)
        .unwrap();
        assert!(e.dense_user(2).is_ok());
        assert!(e.planning().validate(e.instance()).is_ok());
        // μ landed on the right dense cells
        let v3 = e.dense_event(3).unwrap();
        let u2 = e.dense_user(2).unwrap();
        assert!((e.instance().mu(v3, u2) - 0.9).abs() < 1e-6);
    }
}
