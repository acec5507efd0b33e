//! RatioGreedy (Algorithm 1): the global utility/cost-ratio heuristic.
//!
//! RatioGreedy repeatedly adds the unarranged event-user pair with the
//! largest `ratio(v, u) = μ(v, u) / inc_cost(v, u)` (Eq. 2) to the
//! planning, where `inc_cost` is the extra travel the insertion causes
//! (Eq. 3). A heap `H` holds at most one candidate pair per event (its
//! current best user) and one per user (their current best event); after
//! every insertion the affected candidates are recomputed — including, as
//! in lines 15–18 of the paper's pseudo-code, every heap pair incident to
//! the popped user, whose incremental costs may have changed.
//!
//! The same engine drives the `+RG` augmentation pass of §4.3.2: it can
//! start from a non-empty planning and restrict itself to a subset of
//! events (those with residual capacity).
//!
//! # Cached event refresh
//!
//! A pair's key — ratio ↓, then `inc_cost` ↑, then user id ↑ — depends
//! on the user's schedule and on nothing else that changes during a run
//! (the event's remaining capacity gates all of its pairs at once). So
//! between two refreshes of an event, only users whose schedule changed
//! can have a new key for it. The engine keeps, per event, the best K
//! users of its last full scan, best first, plus a *floor*: the best key
//! outside that list, an upper bound on every unlisted user's key. Every
//! accepted assignment appends its user to a per-run log of changed
//! users. A refresh re-probes only the users logged since the event's
//! last refresh, each once: a listed user is re-keyed (or dropped once
//! invalid), an unlisted one joins only above the floor, and a full list
//! spills its worst entry into the floor. Listed keys are then exact and unlisted
//! ones are bounded by the floor, so a list head that beats the floor is
//! exactly the argmax a full `O(|U|)` scan would return; when the list
//! ran dry or the floor overtook its head, the event is rescanned. The
//! heap therefore sees the same pushes, in the same order, as with a
//! full scan at every refresh.
//!
//! K is the event's remaining capacity when the run starts, clamped to
//! `[K_MIN, K_MAX]`: the event takes at most that many more users, so
//! its list rarely runs dry before the event is full. All lists live in
//! one allocation sized then; rescans reuse the event's slot.
//!
//! # Parallel seeding
//!
//! The `O(|U|·|V|)` heap seeding scan fans out over `usep-par` when more
//! than one thread is configured; it is RatioGreedy's only parallel
//! section. Scans are pure reads of the planning (each event's scan
//! writes only its own list slot); the commits (generation bumps and
//! heap pushes) replay sequentially in index order afterwards, so the
//! heap — and therefore the final planning — is bit-identical to a
//! single-threaded run.

use crate::{finish_guarded, GuardedSolve, Solver};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use usep_core::{CoreView, Cost, EventId, Instance, Planning, UserId};
use usep_guard::Guard;
use usep_par::{current_threads, par_map_section};
use usep_trace::{with_span, Counter, LocalCounters, Probe};

/// Below this many scan items a parallel section's thread spawns cost
/// more than the scans they would offload; stay inline.
const MIN_PAR_ITEMS: usize = 32;

/// Shortest per-event candidate list: events with little capacity left
/// (the `+RG` pass, delta repairs) still absorb some churn before a
/// rescan.
const K_MIN: usize = 8;

/// Longest per-event candidate list, so the lists stay `O(|V|)` however
/// large the capacities are. A list of K spreads one `O(|U|)` rescan
/// over up to K of the event's assignments; past 64 the rescans saved no
/// longer paid for the memory: at |V| = 500, |U| = 12 500, mean capacity
/// 200, a solve took 6.0 s and peaked at 3.5 MB with 64, against 5.0 s
/// and 4.4 MB with 256 (DeDPO peaks at 4.2 MB there, and RatioGreedy is
/// the memory floor of the degradation chain).
const K_MAX: usize = 64;

/// The RatioGreedy heuristic (Algorithm 1). No approximation guarantee,
/// but fast on small instances; used standalone and as the `+RG`
/// augmentation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RatioGreedy;

impl Solver for RatioGreedy {
    fn name(&self) -> &'static str {
        "RatioGreedy"
    }

    fn solve_with_probe(&self, inst: &Instance, probe: &dyn Probe) -> Planning {
        self.solve_guarded(inst, Guard::none(), probe).planning
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let mut planning = Planning::empty(inst);
        let events: Vec<EventId> = inst.event_ids().collect();
        with_span(probe, "ratio_greedy", || {
            run_ratio_greedy(inst, &mut planning, &events, guard, probe);
        });
        GuardedSolve { planning, outcome: finish_guarded(guard, probe) }
    }
}

/// Which side of the bipartition a heap candidate was computed for.
///
/// The paper keeps one best pair per event *and* one per user in `H`;
/// tagging lets stale copies be dropped in O(1) when a side's candidate
/// has been recomputed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Event,
    User,
}

#[derive(Clone, Copy, Debug)]
struct Cand {
    ratio: f64,
    inc: Cost,
    v: EventId,
    u: UserId,
    side: Side,
    /// Generation stamp; a heap entry is live only while it matches the
    /// side's current generation (lazy deletion).
    gen: u64,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}

impl Ord for Cand {
    /// Max-heap order: ratio descending, then `inc_cost` ascending (the
    /// paper's tie-break), then ids ascending for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then_with(|| other.inc.cmp(&self.inc))
            .then_with(|| other.v.cmp(&self.v))
            .then_with(|| other.u.cmp(&self.u))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `ratio(v, u)` of Eq. (2). `inc = 0` (an event exactly on the way)
/// yields `+∞`, which simply sorts first; `μ > 0` is guaranteed by the
/// caller, so the ratio is never NaN.
fn ratio_of(mu: f64, inc: Cost) -> f64 {
    debug_assert!(mu > 0.0);
    let inc = inc.as_f64();
    if inc == 0.0 {
        f64::INFINITY
    } else {
        mu / inc
    }
}

/// Per-user occupancy bitsets over events: `⌈|V|/64⌉` words per user,
/// bit `v` set iff `v ∈ S_u`. On the flat view a whole feasibility
/// probe collapses to `conflict_word & occupied_word != 0` against
/// these rows; the object view ignores them and re-scans intervals.
struct Occupancy {
    words: usize,
    bits: Vec<u64>,
}

impl Occupancy {
    fn from_planning(nv: usize, planning: &Planning) -> Occupancy {
        let words = nv.div_ceil(64);
        let mut bits = vec![0u64; planning.schedules().len() * words];
        for (u, s) in planning.schedules().iter().enumerate() {
            for &v in s.events() {
                bits[u * words + v.index() / 64] |= 1u64 << (v.index() % 64);
            }
        }
        Occupancy { words, bits }
    }

    #[inline]
    fn row(&self, u: UserId) -> &[u64] {
        &self.bits[u.index() * self.words..(u.index() + 1) * self.words]
    }

    #[inline]
    fn set(&mut self, u: UserId, v: EventId) {
        self.bits[u.index() * self.words + v.index() / 64] |= 1u64 << (v.index() % 64);
    }
}

/// Remaining capacity of `v` through the view (identical to
/// `Planning::remaining_capacity`, which takes the full instance).
#[inline]
fn remaining_capacity<V: CoreView>(view: &V, planning: &Planning, v: EventId) -> u32 {
    view.capacity(v).saturating_sub(planning.load(v))
}

/// Validity of the pair per Alg. 1: capacity left, `μ > 0`, not yet in
/// `S_u`, time-feasible insertion, reachable legs, and budget. Returns
/// the incremental cost when valid. A pure read of the planning, so
/// parallel scans may call it concurrently; rejects accumulate in the
/// caller's local counter block.
///
/// On the flat view the duplicate/time-conflict test is the bitmask
/// word-AND against `occ`'s row for `u`; the insertion *position* is
/// then recovered with the plain ordinal prefix scan. The object view
/// reports no mask and takes the legacy interval scan, so both paths
/// accept exactly the same pairs.
fn pair_inc<V: CoreView>(
    view: &V,
    planning: &Planning,
    occ: &Occupancy,
    v: EventId,
    u: UserId,
    lc: &mut LocalCounters,
) -> Option<Cost> {
    if remaining_capacity(view, planning, v) == 0 {
        lc.count(Counter::CapacityReject, 1);
        return None;
    }
    if view.mu(v, u) <= 0.0 {
        return None;
    }
    let s = planning.schedule(u);
    let pos = match view.occupied_conflicts(occ.row(u), v) {
        Some(true) => return None,
        Some(false) => view.insertion_pos_unchecked(s.events(), v),
        None => view.insertion_point(s.events(), v)?,
    };
    let inc = view.inc_cost_at(s.events(), u, v, pos);
    if inc.is_infinite() {
        return None;
    }
    if view.total_cost(s.events(), u).add(inc) > view.budget(u) {
        lc.count(Counter::BudgetReject, 1);
        return None;
    }
    Some(inc)
}

/// One candidate user for an event, keyed as the heap orders pairs.
#[derive(Clone, Copy, Debug)]
struct Pick {
    u: UserId,
    ratio: f64,
    inc: Cost,
}

impl Pick {
    /// Filler for list slots that hold no candidate.
    const EMPTY: Pick = Pick { u: UserId(0), ratio: 0.0, inc: Cost::ZERO };

    /// Strictly ahead of `other` in Algorithm 1's order: ratio
    /// descending, then `inc_cost` ascending (the paper's tie-break),
    /// then user id ascending for determinism.
    #[inline]
    fn beats(&self, other: &Pick) -> bool {
        self.ratio > other.ratio
            || (self.ratio == other.ratio
                && (self.inc < other.inc || (self.inc == other.inc && self.u < other.u)))
    }
}

/// Probes `(v, u)` and keys it when valid. Pure.
#[inline]
fn pick<V: CoreView>(
    view: &V,
    planning: &Planning,
    occ: &Occupancy,
    v: EventId,
    u: UserId,
    lc: &mut LocalCounters,
) -> Option<Pick> {
    let inc = pair_inc(view, planning, occ, v, u, lc)?;
    Some(Pick { u, ratio: ratio_of(view.mu(v, u), inc), inc })
}

/// A best-first candidate list over one event's slot: `items[..len]`
/// in [`Pick::beats`] order, and `floor`, the best key that did not fit
/// (`None` while every user outside the list is invalid).
struct Ranked<'s> {
    items: &'s mut [Pick],
    len: usize,
    floor: Option<Pick>,
}

impl Ranked<'_> {
    fn above_floor(&self, p: &Pick) -> bool {
        self.floor.is_none_or(|f| p.beats(&f))
    }

    fn raise_floor(&mut self, p: Pick) {
        if self.above_floor(&p) {
            self.floor = Some(p);
        }
    }

    /// Inserts `p` in order. When the list is full, whichever of `p` and
    /// the last entry ranks lower stays out and raises the floor.
    fn insert(&mut self, p: Pick) {
        let at = self.items[..self.len].partition_point(|q| q.beats(&p));
        if self.len == self.items.len() {
            if at == self.len {
                self.raise_floor(p);
                return;
            }
            self.len -= 1;
            self.raise_floor(self.items[self.len]);
        }
        self.items.copy_within(at..self.len, at + 1);
        self.items[at] = p;
        self.len += 1;
    }

    /// Keeps the entries `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&Pick) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.len = kept;
    }
}

/// List length for an event with `rem` capacity left: the users it can
/// still take, clamped to `[K_MIN, K_MAX]` and `|U|`. A full event
/// never needs a list.
fn list_len(rem: u32, num_users: usize) -> usize {
    if rem == 0 {
        0
    } else {
        (rem as usize).clamp(K_MIN, K_MAX).min(num_users)
    }
}

/// The full scan of an event refresh (lines 3–5 / 12–14): ranks every
/// valid user for `v` into `slot`, keeping the best `slot.len()`, and
/// returns how many it kept and the floor. Pure.
fn scan_event<V: CoreView>(
    view: &V,
    planning: &Planning,
    occ: &Occupancy,
    v: EventId,
    slot: &mut [Pick],
    lc: &mut LocalCounters,
) -> (usize, Option<Pick>) {
    let mut list = Ranked { items: slot, len: 0, floor: None };
    if remaining_capacity(view, planning, v) > 0 {
        for ui in 0..view.num_users() as u32 {
            if let Some(p) = pick(view, planning, occ, v, UserId(ui), lc) {
                list.insert(p);
            }
        }
    }
    (list.len, list.floor)
}

/// The scan half of a user refresh (lines 6–8 / 19–20): the best event
/// for `u` among `events`. Pure.
fn scan_user<V: CoreView>(
    view: &V,
    planning: &Planning,
    occ: &Occupancy,
    events: &[EventId],
    u: UserId,
    lc: &mut LocalCounters,
) -> Option<(EventId, f64, Cost)> {
    let mut best: Option<(EventId, f64, Cost)> = None;
    for &v in events {
        let Some(inc) = pair_inc(view, planning, occ, v, u, lc) else { continue };
        let r = ratio_of(view.mu(v, u), inc);
        let better = match best {
            None => true,
            Some((bv, br, binc)) => {
                r > br || (r == br && (inc < binc || (inc == binc && v < bv)))
            }
        };
        if better {
            best = Some((v, r, inc));
        }
    }
    best
}

/// One event's candidate list: where it lives in [`EventLists::picks`]
/// and its state as of the event's last refresh.
#[derive(Clone, Copy)]
struct Slot {
    start: usize,
    cap: usize,
    /// False until the event's first full scan, which a guard trip can
    /// skip; an unscanned event has no list to answer from.
    scanned: bool,
    len: usize,
    floor: Option<Pick>,
    /// Length of the changed-user log at the event's last refresh.
    seen: usize,
}

/// Full scans after an event's first, by trigger.
#[cfg(test)]
#[derive(Debug, Default)]
struct Rescans {
    /// Every listed user turned invalid.
    dry: u64,
    /// The floor rose above every listed key.
    overtaken: u64,
}

#[cfg(test)]
impl Rescans {
    fn note(&mut self, overtaken: bool) {
        if overtaken {
            self.overtaken += 1;
        } else {
            self.dry += 1;
        }
    }
}

/// The cached event refresh of one run (module docs).
struct EventLists {
    /// Every event's list, back to back in one allocation sized when
    /// the run starts.
    picks: Vec<Pick>,
    /// Per event, indexed like `Engine::events`.
    slots: Vec<Slot>,
    /// Users whose schedule changed during the run, in order.
    changed: Vec<UserId>,
    /// Per user, scratch for the refresh merging the log: `stamp` while
    /// the user is still to be merged, `stamp + 1` if they were listed.
    marks: Vec<u64>,
    stamp: u64,
    #[cfg(test)]
    rescans: Rescans,
}

impl EventLists {
    fn new<V: CoreView>(view: &V, planning: &Planning, events: &[EventId]) -> EventLists {
        let mut total = 0;
        let slots = events
            .iter()
            .map(|&v| {
                let cap = list_len(remaining_capacity(view, planning, v), view.num_users());
                let slot =
                    Slot { start: total, cap, scanned: false, len: 0, floor: None, seen: 0 };
                total += cap;
                slot
            })
            .collect();
        EventLists {
            picks: vec![Pick::EMPTY; total],
            slots,
            changed: Vec::new(),
            marks: vec![0; view.num_users()],
            stamp: 0,
            #[cfg(test)]
            rescans: Rescans::default(),
        }
    }

    /// Records that `u`'s schedule changed.
    fn log(&mut self, u: UserId) {
        self.changed.push(u);
    }

    /// Every event's slot as its own lock, so a parallel seed can hand
    /// each worker the slots of the events it scans (each lock is only
    /// ever taken once, by one worker).
    fn slot_locks(&mut self) -> Vec<Mutex<&mut [Pick]>> {
        let mut rest = &mut self.picks[..];
        self.slots
            .iter()
            .map(|s| {
                let (slot, tail) = std::mem::take(&mut rest).split_at_mut(s.cap);
                rest = tail;
                Mutex::new(slot)
            })
            .collect()
    }

    /// Marks the event at `pos` scanned after a [`scan_event`] straight
    /// into its slot (the parallel seed), returning the list head.
    fn install(&mut self, pos: usize, len: usize, floor: Option<Pick>) -> Option<Pick> {
        let s = &mut self.slots[pos];
        *s = Slot { scanned: true, len, floor, seen: self.changed.len(), ..*s };
        self.picks[s.start..s.start + len].first().copied()
    }

    /// The best user for event `v` at `pos` — exactly the answer of a
    /// full scan, taken from the list whenever its head beats the floor.
    fn best_user<V: CoreView>(
        &mut self,
        view: &V,
        planning: &Planning,
        occ: &Occupancy,
        pos: usize,
        v: EventId,
        lc: &mut LocalCounters,
    ) -> Option<Pick> {
        if remaining_capacity(view, planning, v) == 0 {
            return None;
        }
        let s = &mut self.slots[pos];
        let slot = &mut self.picks[s.start..s.start + s.cap];
        let fresh = &self.changed[s.seen..];
        s.seen = self.changed.len();
        if s.scanned {
            let mut list = Ranked { items: &mut *slot, len: s.len, floor: s.floor };
            if !fresh.is_empty() {
                // take the logged users out of the list, noting who was in
                // it, then merge each of them once with today's key
                self.stamp += 2;
                let (to_merge, listed) = (self.stamp, self.stamp + 1);
                let marks = &mut self.marks;
                for &u in fresh {
                    marks[u.index()] = to_merge;
                }
                list.retain(|p| {
                    let mark = &mut marks[p.u.index()];
                    let keep = *mark != to_merge;
                    if !keep {
                        *mark = listed;
                    }
                    keep
                });
                for &u in fresh {
                    let mark = std::mem::take(&mut marks[u.index()]);
                    if mark < to_merge {
                        continue; // a repeat in the log, merged at its first entry
                    }
                    match pick(view, planning, occ, v, u, lc) {
                        Some(p) if mark == listed || list.above_floor(&p) => list.insert(p),
                        _ => {}
                    }
                }
            }
            (s.len, s.floor) = (list.len, list.floor);
            let head = list.items[..list.len].first().copied();
            match head {
                Some(h) if list.above_floor(&h) => return Some(h),
                None if list.floor.is_none() => return None,
                _ => {}
            }
            #[cfg(test)]
            self.rescans.note(head.is_some());
        }
        (s.len, s.floor) = scan_event(view, planning, occ, v, slot, lc);
        s.scanned = true;
        slot[..s.len].first().copied()
    }
}

struct Engine<'a, V: CoreView + Sync> {
    inst: &'a Instance,
    /// The hot-path accessor surface: the frozen `FlatInstance`
    /// normally, the instance itself under `with_object_path`.
    view: &'a V,
    planning: &'a mut Planning,
    /// Per-user occupancy bitsets, kept in lockstep with `planning`.
    occ: Occupancy,
    /// The events this run may assign (all events for plain RatioGreedy;
    /// the non-full ones for the `+RG` pass).
    events: &'a [EventId],
    heap: BinaryHeap<Cand>,
    /// Current generation per event (index = position in `events`).
    event_gen: Vec<u64>,
    /// Current best candidate per event, if any.
    event_best: Vec<Option<Pick>>,
    /// The candidate lists behind every event refresh.
    lists: EventLists,
    user_gen: Vec<u64>,
    user_best: Vec<Option<(EventId, f64, Cost)>>,
    /// Maps `EventId` to its position in `events` (u32::MAX = excluded).
    event_pos: Vec<u32>,
    next_gen: u64,
    /// Worker count for the seed fan-out (resolved once per run).
    threads: usize,
    guard: &'a Guard,
    probe: &'a dyn Probe,
}

impl<'a, V: CoreView + Sync> Engine<'a, V> {
    fn new(
        inst: &'a Instance,
        view: &'a V,
        planning: &'a mut Planning,
        events: &'a [EventId],
        guard: &'a Guard,
        probe: &'a dyn Probe,
    ) -> Self {
        let mut event_pos = vec![u32::MAX; inst.num_events()];
        for (i, &v) in events.iter().enumerate() {
            event_pos[v.index()] = i as u32;
        }
        let occ = Occupancy::from_planning(inst.num_events(), planning);
        let lists = EventLists::new(view, planning, events);
        Engine {
            inst,
            view,
            planning,
            occ,
            events,
            heap: BinaryHeap::new(),
            event_gen: vec![0; events.len()],
            event_best: vec![None; events.len()],
            lists,
            user_gen: vec![0; inst.num_users()],
            user_best: vec![None; inst.num_users()],
            event_pos,
            next_gen: 1,
            threads: current_threads(),
            guard,
            probe,
        }
    }

    /// The commit half of an event refresh: bumps the generation, stores
    /// the best pick and pushes it. Commits always run on the driving
    /// thread, in item-index order.
    fn commit_event(&mut self, pos: usize, best: Option<Pick>) {
        self.probe.count(Counter::CandidateRefreshEvent, 1);
        self.next_gen += 1;
        self.event_gen[pos] = self.next_gen;
        self.event_best[pos] = best;
        if let Some(Pick { u, ratio, inc }) = best {
            self.probe.count(Counter::HeapPush, 1);
            let v = self.events[pos];
            self.heap.push(Cand { ratio, inc, v, u, side: Side::Event, gen: self.next_gen });
        }
    }

    /// The commit half of a user refresh.
    fn commit_user(&mut self, u: UserId, best: Option<(EventId, f64, Cost)>) {
        self.probe.count(Counter::CandidateRefreshUser, 1);
        self.next_gen += 1;
        self.user_gen[u.index()] = self.next_gen;
        self.user_best[u.index()] = best;
        if let Some((v, r, inc)) = best {
            self.probe.count(Counter::HeapPush, 1);
            self.heap.push(Cand { ratio: r, inc, v, u, side: Side::User, gen: self.next_gen });
        }
    }

    /// Recomputes the best user for the event at `pos` (lines 3–5 /
    /// 12–14) and pushes it.
    fn refresh_event(&mut self, pos: usize) {
        let mut lc = LocalCounters::new();
        let v = self.events[pos];
        let best = self.lists.best_user(self.view, self.planning, &self.occ, pos, v, &mut lc);
        lc.flush_into(self.probe);
        self.commit_event(pos, best);
    }

    /// Recomputes the best event for user `u` (lines 6–8 / 19–20) and
    /// pushes it.
    fn refresh_user(&mut self, u: UserId) {
        let mut lc = LocalCounters::new();
        let best = scan_user(self.view, self.planning, &self.occ, self.events, u, &mut lc);
        lc.flush_into(self.probe);
        self.commit_user(u, best);
    }

    /// Seeds the heap with every event's and every user's best pair.
    /// With more than one thread the scans fan out over the pool and
    /// the commits replay in index order, reproducing the sequential
    /// generation sequence exactly.
    fn seed(&mut self) {
        let users: Vec<UserId> = self.inst.user_ids().collect();
        if self.threads > 1 && self.events.len().max(users.len()) >= MIN_PAR_ITEMS {
            let (view, probe) = (self.view, self.probe);
            let occ = &self.occ;
            let planning: &Planning = self.planning;
            let events = self.events;
            let slots = self.lists.slot_locks();
            let event_scans = par_map_section(
                self.threads,
                "par.seed_events",
                probe,
                &slots,
                self.guard,
                LocalCounters::new,
                |lc, pos, slot| {
                    let mut slot = slot.lock().expect("a slot is locked once, never poisoned");
                    scan_event(view, planning, occ, events[pos], &mut slot, lc)
                },
                |mut lc| lc.flush_into(probe),
            );
            drop(slots);
            for (pos, scan) in event_scans.into_iter().enumerate() {
                // a `None` slot means the guard tripped before this
                // chunk: skip the commit (the event stays unscanned),
                // the drain loop stops anyway
                let Some((len, floor)) = scan else { continue };
                let best = self.lists.install(pos, len, floor);
                self.commit_event(pos, best);
            }
            let events = self.events;
            let occ = &self.occ;
            let planning: &Planning = self.planning;
            let user_scans = par_map_section(
                self.threads,
                "par.seed_users",
                probe,
                &users,
                self.guard,
                LocalCounters::new,
                |lc, _, &u| scan_user(view, planning, occ, events, u, lc),
                |mut lc| lc.flush_into(probe),
            );
            for (i, scan) in user_scans.into_iter().enumerate() {
                let Some(best) = scan else { continue };
                self.commit_user(users[i], best);
            }
        } else {
            // the inline fallback ticks the same section span/counter as
            // the fan-out path, so trace snapshots stay identical across
            // thread counts
            let probe = self.probe;
            with_span(probe, "par.seed_events", || {
                probe.count(Counter::ParSection, 1);
                for pos in 0..self.events.len() {
                    if self.guard.checkpoint() {
                        break;
                    }
                    self.refresh_event(pos);
                }
            });
            with_span(probe, "par.seed_users", || {
                probe.count(Counter::ParSection, 1);
                for &u in &users {
                    if self.guard.checkpoint() {
                        break;
                    }
                    self.refresh_user(u);
                }
            });
        }
    }

    fn run(&mut self) {
        self.probe.span_enter("ratio_greedy.seed");
        self.seed();
        self.probe.span_exit("ratio_greedy.seed");
        self.probe.span_enter("ratio_greedy.drain");
        while let Some(c) = self.heap.pop() {
            // every assignment made so far is a valid prefix — stop here
            // when the budget is exhausted
            if self.guard.checkpoint() {
                break;
            }
            self.probe.count(Counter::HeapPop, 1);
            let pos = self.event_pos[c.v.index()] as usize;
            // lazy deletion: only the entry matching the side's current
            // generation is live
            let live = match c.side {
                Side::Event => self.event_gen[pos] == c.gen,
                Side::User => self.user_gen[c.u.index()] == c.gen,
            };
            if !live {
                self.probe.count(Counter::HeapPopStale, 1);
                continue;
            }
            // consume the side's slot
            match c.side {
                Side::Event => self.event_best[pos] = None,
                Side::User => self.user_best[c.u.index()] = None,
            }
            let mut lc = LocalCounters::new();
            let revalidated = pair_inc(self.view, self.planning, &self.occ, c.v, c.u, &mut lc);
            lc.flush_into(self.probe);
            let added = if let Some(inc) = revalidated {
                self.planning
                    .assign(self.inst, c.u, c.v)
                    .expect("pair validated as assignable");
                self.occ.set(c.u, c.v);
                self.lists.log(c.u);
                if self.probe.enabled() {
                    self.probe.record("ratio_greedy.accepted_inc", inc.as_f64());
                }
                true
            } else {
                false
            };
            // lines 12-14 & 19-20: new best pair for the popped event and user
            self.refresh_event(pos);
            self.refresh_user(c.u);
            if added {
                // lines 15-18: u's schedule changed, so every heap pair
                // incident to u may have a different inc_cost — recompute
                // the events whose current best user is u
                for i in 0..self.events.len() {
                    if i != pos && self.event_best[i].is_some_and(|b| b.u == c.u) {
                        self.refresh_event(i);
                    }
                }
                // and the user-side entries offering the now-possibly-full
                // event v are handled lazily: they fail `pair_inc` on pop
                // and trigger a refresh then.
            }
        }
        self.probe.span_exit("ratio_greedy.drain");
    }
}

/// Runs the RatioGreedy engine on `planning`, restricted to `events`
/// (Algorithm 1; also the `+RG` pass when `planning` is non-empty and
/// `events` are the non-full ones). Existing schedules are respected —
/// incremental costs are computed against them.
pub(crate) fn run_ratio_greedy(
    inst: &Instance,
    planning: &mut Planning,
    events: &[EventId],
    guard: &Guard,
    probe: &dyn Probe,
) {
    if events.is_empty() || inst.num_users() == 0 {
        return;
    }
    // the view decision is made once, here, on the calling thread; the
    // chosen view flows into the parallel scan closures, so workers
    // never consult the thread-local
    if usep_core::object_path_forced() {
        Engine::new(inst, inst, planning, events, guard, probe).run();
    } else {
        let flat = inst.freeze();
        Engine::new(inst, &*flat, planning, events, guard, probe).run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{InstanceBuilder, Point, TimeInterval};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use usep_gen::{generate, SyntheticConfig};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn empty_instance() {
        let mut b = InstanceBuilder::new();
        b.user(Point::ORIGIN, Cost::new(10));
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn no_users() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn picks_highest_ratio_pair_first() {
        let mut b = InstanceBuilder::new();
        // v0 near u0 (cheap), v1 far (expensive), same utility
        let v0 = b.event(1, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(50, 0), iv(0, 10)); // conflicts with v0
        let u0 = b.user(Point::ORIGIN, Cost::new(200));
        b.utility(v0, u0, 0.5);
        b.utility(v1, u0, 0.5);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        // both conflict, so only one fits; the cheaper one wins by ratio
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn respects_capacity() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::new(1, 0), Cost::new(100));
        let u1 = b.user(Point::new(1, 0), Cost::new(100));
        b.utility(v0, u0, 0.9);
        b.utility(v0, u1, 0.8);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.load(v0), 1);
        // the higher-ratio user gets it
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert!(p.schedule(u1).is_empty());
    }

    #[test]
    fn zero_inc_cost_pair_sorts_first() {
        let mut b = InstanceBuilder::new();
        // u0 sits exactly at v0: round trip costs 0
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::new(1, 0), iv(20, 30));
        let u0 = b.user(Point::ORIGIN, Cost::new(100));
        b.utility(v0, u0, 0.1); // tiny utility but infinite ratio
        b.utility(v1, u0, 0.9);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        // both fit; just verify feasibility and that v0 was taken
        assert!(p.schedule(u0).contains(v0));
        assert!(p.schedule(u0).contains(v1));
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn budget_limits_schedule() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(5, Point::new(2, 0), iv(0, 10));
        let v1 = b.event(5, Point::new(4, 0), iv(10, 20));
        let v2 = b.event(5, Point::new(40, 0), iv(20, 30));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v0, u0, 0.5);
        b.utility(v1, u0, 0.5);
        b.utility(v2, u0, 1.0);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert!(p.validate(&inst).is_ok());
        // v2 is unaffordable (round trip 80 > 10)
        assert!(!p.schedule(u0).contains(v2));
    }

    #[test]
    fn incident_pairs_are_refreshed_when_inc_cost_improves() {
        // Algorithm 1 lines 15-18: after u0 gets v_far, inserting v_mid
        // becomes *cheaper* for u0 (it sits on the way), so its ratio
        // jumps. A lazy implementation that only re-checks validity at
        // pop time would still use the stale, worse ratio and could lose
        // the capacity race for v_mid to u1.
        let mut b = InstanceBuilder::new();
        let v_far = b.event(1, Point::new(10, 0), iv(0, 10));
        let v_mid = b.event(1, Point::new(5, 0), iv(10, 20)); // capacity 1!
        let u0 = b.user(Point::new(0, 0), Cost::new(40));
        let u1 = b.user(Point::new(5, 4), Cost::new(40));
        b.utility(v_far, u0, 0.9);
        // stale ratio for (v_mid, u0): 0.4 / 10 = 0.04 (round trip);
        // fresh after v_far: inc = cost(v_far,v_mid) + cost(v_mid,u0)
        //                        - cost(v_far,u0) = 5 + 5 - 10 = 0 → ∞
        b.utility(v_mid, u0, 0.4);
        // competitor ratio for (v_mid, u1): 0.3 / 8 = 0.0375 < 0.04 is
        // false... make it sit between stale (0.04) and fresh (∞):
        // inc for u1 = 2·4 = 8 → 0.35/8 = 0.044 > 0.04
        b.utility(v_mid, u1, 0.35);
        let inst = b.build().unwrap();
        assert_eq!(inst.cost_uv(u1, v_mid), Cost::new(4));
        let p = RatioGreedy.solve(&inst);
        assert!(p.validate(&inst).is_ok());
        // with eager incident refresh, u0's post-insertion ratio for
        // v_mid is infinite (zero marginal travel) and beats u1's 0.044
        assert!(
            p.schedule(u0).contains(v_mid),
            "incident refresh failed: u0 lost the free-on-the-way event, got {:?} / {:?}",
            p.schedule(u0).events(),
            p.schedule(u1).events()
        );
        assert!(p.schedule(u0).contains(v_far));
    }

    #[test]
    fn multi_user_multi_event_feasible_and_deterministic() {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..6 {
            vs.push(b.event(
                2,
                Point::new(i * 3, (i % 2) * 4),
                iv(i64::from(i) * 10, i64::from(i) * 10 + 8),
            ));
        }
        let mut us = Vec::new();
        for j in 0..4 {
            us.push(b.user(Point::new(j * 2, 1), Cost::new(60)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, 0.1 + 0.13 * ((i * 4 + j) % 7) as f64);
            }
        }
        let inst = b.build().unwrap();
        let p1 = RatioGreedy.solve(&inst);
        let p2 = RatioGreedy.solve(&inst);
        assert_eq!(p1, p2, "deterministic");
        assert!(p1.validate(&inst).is_ok());
        assert!(p1.num_assignments() > 0);
    }

    #[test]
    fn cached_answers_equal_full_scans_and_both_rescan_triggers_fire() {
        // lists over the even events only, so the odd ones can change
        // schedules without using list events' capacity; capacities above
        // K_MIN and at least eight users per list slot
        let cfg = SyntheticConfig::tiny()
            .with_events(48)
            .with_users(480)
            .with_capacity_mean(24);
        let inst = generate(&cfg, 1);
        let flat = inst.freeze();
        let view = &*flat;
        let (events, others): (Vec<EventId>, Vec<EventId>) =
            inst.event_ids().partition(|v| v.index() % 2 == 0);
        let mut planning = Planning::empty(&inst);
        let mut occ = Occupancy::from_planning(inst.num_events(), &planning);
        let mut lists = EventLists::new(view, &planning, &events);
        assert!(lists.slots.iter().all(|s| (K_MIN..=K_MAX).contains(&s.cap)));
        let mut full = vec![Pick::EMPTY; inst.num_users()];
        let mut lc = LocalCounters::new();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..6000 {
            let pos = rng.gen_range(0..events.len());
            let v = events[pos];
            let cached = lists.best_user(view, &planning, &occ, pos, v, &mut lc);
            let (len, _) = scan_event(view, &planning, &occ, v, &mut full, &mut lc);
            let key = |p: Pick| (p.u, p.ratio.to_bits(), p.inc);
            assert_eq!(cached.map(key), full[..len].first().copied().map(key), "step {step}");
            // the answer takes the event (its list head leaves), or another
            // event outside the lists (its keys move or turn invalid)
            let Some(p) = cached else { continue };
            let w = if rng.gen_bool(0.5) { v } else { others[rng.gen_range(0..others.len())] };
            if pair_inc(view, &planning, &occ, w, p.u, &mut lc).is_some() {
                planning.assign(&inst, p.u, w).expect("valid pair");
                occ.set(p.u, w);
                lists.log(p.u);
            }
        }
        let rescans = &lists.rescans;
        assert!(rescans.dry > 0, "no list ran dry: {rescans:?}");
        assert!(rescans.overtaken > 0, "no floor overtook a list head: {rescans:?}");
    }

    #[test]
    fn an_unscanned_event_is_scanned_rather_than_read_as_empty() {
        // a guard trip can skip an event's seed scan; its first refresh
        // must find the full scan's best user, not an empty list
        let inst = generate(&SyntheticConfig::tiny(), 5);
        let events: Vec<EventId> = inst.event_ids().collect();
        let planning = Planning::empty(&inst);
        let occ = Occupancy::from_planning(inst.num_events(), &planning);
        let mut lists = EventLists::new(&inst, &planning, &events);
        let mut lc = LocalCounters::new();
        for (pos, &v) in events.iter().enumerate() {
            let mut full = vec![Pick::EMPTY; inst.num_users()];
            let (len, _) = scan_event(&inst, &planning, &occ, v, &mut full, &mut lc);
            let cached = lists.best_user(&inst, &planning, &occ, pos, v, &mut lc);
            assert_eq!(cached.map(|p| p.u), full[..len].first().map(|p| p.u), "event {v:?}");
            assert!(lists.slots[pos].scanned || len == 0);
        }
    }

    #[test]
    fn probe_counters_satisfy_lazy_heap_invariants() {
        use usep_trace::TraceSink;
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..5 {
            vs.push(b.event(
                2,
                Point::new(i * 4, i % 3),
                iv(i64::from(i) * 10, i64::from(i) * 10 + 8),
            ));
        }
        let mut us = Vec::new();
        for j in 0..4 {
            us.push(b.user(Point::new(j, 2), Cost::new(50)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, 0.15 + 0.11 * ((i * 3 + j) % 6) as f64);
            }
        }
        let inst = b.build().unwrap();

        let sink = TraceSink::new();
        let traced = RatioGreedy.solve_with_probe(&inst, &sink);
        assert_eq!(traced, RatioGreedy.solve(&inst), "probes must not steer the result");

        let pop = sink.counter(Counter::HeapPop);
        let stale = sink.counter(Counter::HeapPopStale);
        let push = sink.counter(Counter::HeapPush);
        assert!(pop >= stale, "every stale pop is a pop: pop={pop} stale={stale}");
        assert_eq!(push, pop, "the drain loop empties the heap exactly");
        assert!(sink.counter(Counter::CandidateRefreshEvent) >= 5, "one seed refresh per event");
        assert!(sink.counter(Counter::CandidateRefreshUser) >= 4, "one seed refresh per user");
        // every assignment came out of an accepted pop
        assert!(pop - stale >= traced.num_assignments() as u64);
        let spans = sink.span_totals();
        for name in ["ratio_greedy", "ratio_greedy.seed", "ratio_greedy.drain"] {
            assert!(spans.iter().any(|t| t.name == name && t.count == 1), "missing span {name}");
        }
    }
}
