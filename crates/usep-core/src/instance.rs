//! USEP problem instances.

use crate::cost::Cost;
use crate::error::{BuildError, ValidateError};
use crate::event::Event;
use crate::geo::Point;
use crate::ids::{EventId, UserId};
use crate::temporal::TemporalIndex;
use crate::time::TimeInterval;
use crate::user::User;
use serde::{Deserialize, Serialize};

/// How travel costs between locations are derived.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TravelCost {
    /// Costs are Manhattan distances between the integer-grid locations of
    /// events and users (the paper's experimental setting).
    ///
    /// `time_per_unit` gates *temporal* reachability between events: a
    /// pair `(v_i, v_j)` with `v_i` ending before `v_j` starts is still
    /// unreachable (cost `+∞`) when
    /// `t2_i + time_per_unit · dist(v_i, v_j) > t1_j`. With
    /// `time_per_unit = 0` (money-cost mode, the default) every
    /// non-overlapping pair is reachable.
    Grid {
        /// Travel time per unit of Manhattan distance.
        time_per_unit: u32,
    },
    /// Explicit cost matrices, for hand-built instances and reductions.
    ///
    /// `user_event[u * |V| + v]` is the symmetric cost between user `u`
    /// and event `v` (the paper's `cost(u, v) = cost(v, u)` — both are
    /// distances between the same two locations).
    /// `event_event[i * |V| + j]` is the directed cost of attending `j`
    /// right after `i`; it **must** be [`Cost::INFINITE`] whenever `i`
    /// does not temporally precede `j`.
    Explicit {
        /// `|U| × |V|` row-major user-event costs.
        user_event: Vec<Cost>,
        /// `|V| × |V|` row-major directed event-event costs.
        event_event: Vec<Cost>,
    },
}

/// A complete USEP problem instance.
///
/// Construction goes through [`InstanceBuilder`], which validates the
/// input and precomputes the directed event-event cost matrix (with
/// infinities for spatio-temporally incompatible pairs) and the
/// [`TemporalIndex`]. Only the `patch_*` methods change an instance
/// afterwards, and they amend every precomputed structure with it, so
/// none can go stale.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(from = "InstanceData", into = "InstanceData")]
pub struct Instance {
    events: Vec<Event>,
    users: Vec<User>,
    /// Dense utilities, row-major by user: `mu[u * |V| + v]`.
    mu: Vec<f32>,
    travel: TravelCost,
    /// Participation fees per event (Remark 2); empty means all zero.
    fees: Vec<u32>,
    /// Precomputed `|V| × |V|` directed costs — the fee of the *target*
    /// event folded in, infinite when incompatible.
    event_costs: Vec<Cost>,
    temporal: TemporalIndex,
    /// Lazily-built SoA lowering ([`Instance::freeze`]); shared by
    /// every solve of this instance, dropped on serialization.
    flat: std::sync::OnceLock<std::sync::Arc<crate::flat::FlatInstance>>,
}

// The flat cache is a derived artifact, not identity: a frozen and a
// never-frozen copy of the same data must compare equal (serde
// round-trips rebuild instances without the cache).
impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.events == other.events
            && self.users == other.users
            && self.mu == other.mu
            && self.travel == other.travel
            && self.fees == other.fees
    }
}

/// Serialized form of an [`Instance`] (precomputed structures are rebuilt
/// on deserialization).
#[derive(Clone, Serialize, Deserialize)]
struct InstanceData {
    events: Vec<Event>,
    users: Vec<User>,
    mu: Vec<f32>,
    travel: TravelCost,
    #[serde(default)]
    fees: Vec<u32>,
}

impl From<Instance> for InstanceData {
    fn from(i: Instance) -> InstanceData {
        InstanceData { events: i.events, users: i.users, mu: i.mu, travel: i.travel, fees: i.fees }
    }
}

impl From<InstanceData> for Instance {
    fn from(d: InstanceData) -> Instance {
        // Serialized instances were validated at original build time; the
        // derived structures are deterministic functions of the data.
        Instance::assemble(d.events, d.users, d.mu, d.travel, d.fees)
    }
}

pub mod patch;

impl Instance {
    fn assemble(
        events: Vec<Event>,
        users: Vec<User>,
        mu: Vec<f32>,
        travel: TravelCost,
        fees: Vec<u32>,
    ) -> Instance {
        let event_costs = compute_event_costs(&events, &travel, &fees);
        let temporal = TemporalIndex::build(&events);
        Instance {
            events,
            users,
            mu,
            travel,
            fees,
            event_costs,
            temporal,
            flat: std::sync::OnceLock::new(),
        }
    }

    /// The one-shot SoA lowering of this instance (see
    /// [`FlatInstance`](crate::FlatInstance)): built on first call,
    /// cached, and shared — repeat calls, clones of the returned `Arc`,
    /// worker threads and serve-retry attempts all borrow the same
    /// arrays. The `patch_*` methods amend the cached view alongside the
    /// object arrays, so it never goes stale: in place when the instance
    /// holds the only handle, copy-on-write while a returned handle is
    /// still held, so a held handle keeps the view it was given.
    pub fn freeze(&self) -> std::sync::Arc<crate::flat::FlatInstance> {
        self.flat
            .get_or_init(|| std::sync::Arc::new(crate::flat::FlatInstance::build(self)))
            .clone()
    }

    /// Number of events `|V|`.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of users `|U|`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The event with index `v`.
    #[inline]
    pub fn event(&self, v: EventId) -> &Event {
        &self.events[v.index()]
    }

    /// The user with index `u`.
    #[inline]
    pub fn user(&self, u: UserId) -> &User {
        &self.users[u.index()]
    }

    /// All events, indexed by `EventId`.
    #[inline]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// All users, indexed by `UserId`.
    #[inline]
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// Iterator over all event ids.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.events.len() as u32).map(EventId)
    }

    /// Iterator over all user ids.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.users.len() as u32).map(UserId)
    }

    /// Utility `μ(v, u) ∈ [0, 1]`.
    #[inline]
    pub fn mu(&self, v: EventId, u: UserId) -> f64 {
        f64::from(self.mu[u.index() * self.events.len() + v.index()])
    }

    /// The row of utilities of user `u` over all events (indexed by
    /// `EventId`), for cache-friendly per-user scans.
    #[inline]
    pub fn mu_row(&self, u: UserId) -> &[f32] {
        let nv = self.events.len();
        &self.mu[u.index() * nv..(u.index() + 1) * nv]
    }

    /// Raw travel cost between user `u` and event `v` — symmetric, no
    /// fee. Prefer [`cost_to_event`](Instance::cost_to_event) /
    /// [`cost_from_event`](Instance::cost_from_event) in scheduling code,
    /// which fold in participation fees (Remark 2).
    #[inline]
    pub fn cost_uv(&self, u: UserId, v: EventId) -> Cost {
        match &self.travel {
            TravelCost::Grid { .. } => {
                self.users[u.index()].location.cost_to(self.events[v.index()].location)
            }
            TravelCost::Explicit { user_event, .. } => {
                user_event[u.index() * self.events.len() + v.index()]
            }
        }
    }

    /// The raw participation-fee vector (Remark 2): one entry per event,
    /// or empty when every fee is zero. Oracle-facing accessor — external
    /// validators and instance transforms rebuild instances from this
    /// plus [`Instance::events`]/[`Instance::users`]/[`Instance::mu_row`]
    /// and [`Instance::travel`].
    #[inline]
    pub fn fees(&self) -> &[u32] {
        &self.fees
    }

    /// The participation fee of event `v` (Remark 2; 0 by default).
    #[inline]
    pub fn fee(&self, v: EventId) -> u32 {
        if self.fees.is_empty() {
            0
        } else {
            self.fees[v.index()]
        }
    }

    /// Cost of traveling *to* event `v` from home: `cost(u, v) + fee_v`
    /// (the Remark-2 reduction charges each event's fee on the inbound
    /// leg).
    #[inline]
    pub fn cost_to_event(&self, u: UserId, v: EventId) -> Cost {
        let c = self.cost_uv(u, v);
        if self.fees.is_empty() {
            c
        } else {
            c.add(Cost::new(self.fees[v.index()]))
        }
    }

    /// Cost of traveling home *from* event `v`: the plain `cost(v, u)`
    /// (no fee on the way out).
    #[inline]
    pub fn cost_from_event(&self, v: EventId, u: UserId) -> Cost {
        self.cost_uv(u, v)
    }

    /// Directed cost of attending event `j` right after event `i`
    /// (including `j`'s fee); [`Cost::INFINITE`] when the pair is
    /// spatio-temporally incompatible.
    #[inline]
    pub fn cost_vv(&self, i: EventId, j: EventId) -> Cost {
        self.event_costs[i.index() * self.events.len() + j.index()]
    }

    /// Round-trip cost `cost(u, v) + fee_v + cost(v, u)` of attending
    /// only `v`.
    #[inline]
    pub fn round_trip(&self, u: UserId, v: EventId) -> Cost {
        self.cost_to_event(u, v).add(self.cost_from_event(v, u))
    }

    /// A copy of this instance with per-user candidate sets applied
    /// (Remark 1): `μ(v, u)` is zeroed for every `v ∉ sets[u]`, so no
    /// algorithm will ever arrange an event outside a user's list.
    ///
    /// # Panics
    /// Panics unless `sets.len() == |U|`.
    pub fn restrict_candidates(&self, sets: &[Vec<EventId>]) -> Instance {
        assert_eq!(sets.len(), self.num_users(), "one candidate set per user");
        let nv = self.num_events();
        let mut mu = self.mu.clone();
        for (u, set) in sets.iter().enumerate() {
            let mut allowed = vec![false; nv];
            for v in set {
                allowed[v.index()] = true;
            }
            for (v, ok) in allowed.iter().enumerate() {
                if !ok {
                    mu[u * nv + v] = 0.0;
                }
            }
        }
        Instance::assemble(
            self.events.clone(),
            self.users.clone(),
            mu,
            self.travel.clone(),
            self.fees.clone(),
        )
    }

    /// The end-time ordering of events.
    #[inline]
    pub fn temporal(&self) -> &TemporalIndex {
        &self.temporal
    }

    /// How travel costs are derived.
    #[inline]
    pub fn travel(&self) -> &TravelCost {
        &self.travel
    }

    /// Whether events `i` and `j` can both appear in one schedule (in some
    /// order).
    #[inline]
    pub fn compatible(&self, i: EventId, j: EventId) -> bool {
        self.cost_vv(i, j).is_finite() || self.cost_vv(j, i).is_finite()
    }

    /// The conflict ratio `cr` of the instance: the fraction of unordered
    /// event pairs that are spatio-temporally conflicting (cannot both be
    /// attended by any user, in either order). This is the statistic the
    /// paper's generator targets (Table 7).
    pub fn conflict_ratio(&self) -> f64 {
        let n = self.events.len();
        if n < 2 {
            return 0.0;
        }
        let mut conflicts = 0u64;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if !self.compatible(EventId(i), EventId(j)) {
                    conflicts += 1;
                }
            }
        }
        conflicts as f64 / (n as u64 * (n as u64 - 1) / 2) as f64
    }

    /// Total utility mass `Σ_{v,u} μ(v, u)` — an upper bound scale for Ω
    /// used by tests and sanity checks.
    pub fn total_utility_mass(&self) -> f64 {
        self.mu.iter().map(|&m| f64::from(m)).sum()
    }

    /// Re-checks the invariants [`InstanceBuilder::build`] enforces, on
    /// an instance that may have bypassed the builder.
    ///
    /// Deserialization (`from = "InstanceData"`) trusts its input, so
    /// adversarial or corrupted JSON can smuggle in values no builder
    /// would accept: `NaN` utilities (the vendored serde maps JSON
    /// `null` to `NaN`), utilities outside `[0, 1]`, zero capacities,
    /// empty time intervals, `u32::MAX` (infinite) budgets, misshapen
    /// matrices, and triangle-inequality violations. Any of these can
    /// later panic deep inside a solver or silently corrupt the
    /// objective; call `validate` before solving anything untrusted.
    ///
    /// The triangle-inequality audit is exhaustive for small explicit
    /// matrices and deterministic spot sampling beyond that (the full
    /// `O(|V|³ + |U||V|²)` audit stays available through
    /// [`InstanceBuilder`]).
    pub fn validate(&self) -> Result<(), ValidateError> {
        let nv = self.events.len();
        let nu = self.users.len();

        if self.mu.len() != nv * nu {
            return Err(ValidateError::UtilityShape { expected: nv * nu, got: self.mu.len() });
        }
        for (idx, &val) in self.mu.iter().enumerate() {
            if !val.is_finite() || !(0.0..=1.0).contains(&val) {
                return Err(ValidateError::Utility {
                    event: EventId((idx % nv) as u32),
                    user: UserId((idx / nv) as u32),
                    value: f64::from(val),
                });
            }
        }

        for (i, e) in self.events.iter().enumerate() {
            if e.capacity == 0 {
                return Err(ValidateError::ZeroCapacity(EventId(i as u32)));
            }
            if e.time.start() >= e.time.end() {
                return Err(ValidateError::EmptyInterval {
                    event: EventId(i as u32),
                    start: e.time.start(),
                    end: e.time.end(),
                });
            }
        }

        for (i, u) in self.users.iter().enumerate() {
            if u.budget.is_infinite() {
                return Err(ValidateError::InfiniteBudget(UserId(i as u32)));
            }
        }

        if !self.fees.is_empty() && self.fees.len() != nv {
            return Err(ValidateError::FeeShape { expected: nv, got: self.fees.len() });
        }
        for (i, &fee) in self.fees.iter().enumerate() {
            if fee == u32::MAX {
                return Err(ValidateError::InfiniteFee(EventId(i as u32)));
            }
        }

        if let TravelCost::Explicit { user_event, event_event } = &self.travel {
            if user_event.len() != nu * nv {
                return Err(ValidateError::CostShape {
                    which: "user_event",
                    expected: nu * nv,
                    got: user_event.len(),
                });
            }
            if event_event.len() != nv * nv {
                return Err(ValidateError::CostShape {
                    which: "event_event",
                    expected: nv * nv,
                    got: event_event.len(),
                });
            }
            for i in 0..nv {
                for j in 0..nv {
                    let incompatible =
                        i == j || !self.events[i].time.precedes(self.events[j].time);
                    if incompatible && event_event[i * nv + j].is_finite() {
                        return Err(ValidateError::FiniteCostForConflict(
                            EventId(i as u32),
                            EventId(j as u32),
                        ));
                    }
                }
            }
            spot_check_triangle(nv, nu, user_event, event_event)?;
        }

        Ok(())
    }
}

/// Per-family sample budget of the [`Instance::validate`] triangle
/// audit: below this many triples a family is checked exhaustively,
/// above it the same number of deterministically-sampled triples.
const TRIANGLE_SPOT_SAMPLES: u64 = 4096;

fn spot_check_triangle(
    nv: usize,
    nu: usize,
    user_event: &[Cost],
    event_event: &[Cost],
) -> Result<(), ValidateError> {
    if nv == 0 {
        return Ok(());
    }
    let ee = |i: usize, j: usize| event_event[i * nv + j];
    let ue = |u: usize, v: usize| user_event[u * nv + v];

    let check_eee = |i: usize, j: usize, k: usize| -> Result<(), ValidateError> {
        if ee(i, j).is_finite()
            && ee(j, k).is_finite()
            && ee(i, k).is_finite()
            && ee(i, k) > ee(i, j).add(ee(j, k))
        {
            return Err(ValidateError::TriangleViolation {
                detail: format!(
                    "cost(v{i}, v{k}) = {} > cost(v{i}, v{j}) + cost(v{j}, v{k}) = {}",
                    ee(i, k),
                    ee(i, j).add(ee(j, k))
                ),
            });
        }
        Ok(())
    };
    let check_uee = |u: usize, i: usize, j: usize| -> Result<(), ValidateError> {
        if ee(i, j).is_infinite() {
            return Ok(());
        }
        if ue(u, j) > ue(u, i).add(ee(i, j)) {
            return Err(ValidateError::TriangleViolation {
                detail: format!(
                    "cost(u{u}, v{j}) = {} > cost(u{u}, v{i}) + cost(v{i}, v{j}) = {}",
                    ue(u, j),
                    ue(u, i).add(ee(i, j))
                ),
            });
        }
        if ee(i, j) > ue(u, i).add(ue(u, j)) {
            return Err(ValidateError::TriangleViolation {
                detail: format!(
                    "cost(v{i}, v{j}) = {} > cost(v{i}, u{u}) + cost(u{u}, v{j}) = {}",
                    ee(i, j),
                    ue(u, i).add(ue(u, j))
                ),
            });
        }
        Ok(())
    };

    // fixed-seed xorshift64* so validation is deterministic
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move |m: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % m as u64) as usize
    };

    let eee_total = (nv as u64).saturating_pow(3);
    if eee_total <= TRIANGLE_SPOT_SAMPLES {
        for i in 0..nv {
            for j in 0..nv {
                for k in 0..nv {
                    check_eee(i, j, k)?;
                }
            }
        }
    } else {
        for _ in 0..TRIANGLE_SPOT_SAMPLES {
            check_eee(next(nv), next(nv), next(nv))?;
        }
    }

    let uee_total = (nu as u64).saturating_mul((nv as u64).saturating_pow(2));
    if uee_total <= TRIANGLE_SPOT_SAMPLES {
        for u in 0..nu {
            for i in 0..nv {
                for j in 0..nv {
                    check_uee(u, i, j)?;
                }
            }
        }
    } else {
        for _ in 0..TRIANGLE_SPOT_SAMPLES {
            check_uee(next(nu), next(nv), next(nv))?;
        }
    }

    Ok(())
}

fn compute_event_costs(events: &[Event], travel: &TravelCost, fees: &[u32]) -> Vec<Cost> {
    let n = events.len();
    let mut costs = vec![Cost::INFINITE; n * n];
    match travel {
        TravelCost::Grid { time_per_unit } => {
            for i in 0..n {
                for j in 0..n {
                    if i == j || !events[i].time.precedes(events[j].time) {
                        continue;
                    }
                    let dist = events[i].location.cost_to(events[j].location);
                    let reachable = if *time_per_unit == 0 {
                        true
                    } else if let Some(d) = dist.finite_value() {
                        let travel_time = u64::from(d) * u64::from(*time_per_unit);
                        let gap = events[i].time.gap_before(events[j].time).unwrap_or(0);
                        gap >= 0 && travel_time <= gap as u64
                    } else {
                        false
                    };
                    if reachable {
                        costs[i * n + j] = dist;
                    }
                }
            }
        }
        TravelCost::Explicit { event_event, .. } => {
            // A wrong-length matrix (corrupted or forged file) must not
            // panic here — deserialization runs before `validate` can
            // report the shape error. Leave the costs all-infinite; the
            // instance is unusable either way until validation rejects it.
            if event_event.len() == costs.len() {
                costs.copy_from_slice(event_event);
            }
        }
    }
    // Remark 2: the fee of the target event rides on the inbound leg.
    // A misshapen fee vector or an infinite (`u32::MAX`) fee comes from
    // a corrupted or forged file; like the wrong-length matrix above it
    // must not panic here, because deserialization runs before
    // `validate` can report the error. Skip — validation rejects the
    // instance before any solver sees these costs.
    if fees.len() == n {
        for j in 0..n {
            if fees[j] == 0 || fees[j] == u32::MAX {
                continue;
            }
            let fee = Cost::new(fees[j]);
            for i in 0..n {
                let c = &mut costs[i * n + j];
                if c.is_finite() {
                    *c = c.add(fee);
                }
            }
        }
    }
    costs
}

/// Incremental builder and validator for [`Instance`]s.
///
/// ```
/// use usep_core::{InstanceBuilder, Point, TimeInterval, Cost};
/// let mut b = InstanceBuilder::new();
/// let v = b.event(1, Point::new(0, 0), TimeInterval::new(0, 10).unwrap());
/// let u = b.user(Point::new(1, 0), Cost::new(10));
/// b.utility(v, u, 0.8);
/// let inst = b.build().unwrap();
/// assert_eq!(inst.mu(v, u), 0.800000011920929); // stored as f32
/// ```
#[derive(Clone, Debug, Default)]
pub struct InstanceBuilder {
    events: Vec<Event>,
    users: Vec<User>,
    sparse_mu: Vec<(EventId, UserId, f64)>,
    dense_mu: Option<Vec<f32>>,
    travel: Option<TravelCost>,
    fees: Vec<(EventId, u32)>,
    skip_triangle_check: bool,
}

impl InstanceBuilder {
    /// An empty builder (grid travel costs with `time_per_unit = 0` by
    /// default).
    pub fn new() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    /// Adds an event, returning its id.
    pub fn event(&mut self, capacity: u32, location: Point, time: TimeInterval) -> EventId {
        self.events.push(Event::new(capacity, location, time));
        EventId(self.events.len() as u32 - 1)
    }

    /// Adds a user, returning its id.
    pub fn user(&mut self, location: Point, budget: Cost) -> UserId {
        self.users.push(User::new(location, budget));
        UserId(self.users.len() as u32 - 1)
    }

    /// Sets a single utility value (unset pairs default to 0 — "not
    /// interested", per the utility constraint).
    pub fn utility(&mut self, v: EventId, u: UserId, value: f64) -> &mut Self {
        self.sparse_mu.push((v, u, value));
        self
    }

    /// Installs a full dense utility matrix, row-major by user
    /// (`mu[u * |V| + v]`). Overrides any sparse values set so far.
    pub fn utility_matrix(&mut self, mu: Vec<f32>) -> &mut Self {
        self.dense_mu = Some(mu);
        self
    }

    /// Sets the travel-cost model (defaults to
    /// `TravelCost::Grid { time_per_unit: 0 }`).
    pub fn travel(&mut self, travel: TravelCost) -> &mut Self {
        self.travel = Some(travel);
        self
    }

    /// Sets a participation fee for event `v` (Remark 2). Fees are
    /// charged on the inbound leg of the Remark-2 cost reduction:
    /// `cost'(u, v) = cost(u, v) + fee_v` and
    /// `cost'(v_i, v_j) = cost(v_i, v_j) + fee_{v_j}`.
    pub fn fee(&mut self, v: EventId, amount: u32) -> &mut Self {
        self.fees.push((v, amount));
        self
    }

    /// Disables the `O(|V|³ + |U||V|²)` triangle-inequality audit of
    /// explicit cost matrices. Grid costs are metric by construction and
    /// never audited. Only use this for large explicit instances whose
    /// costs are known to be metric.
    pub fn skip_triangle_check(&mut self) -> &mut Self {
        self.skip_triangle_check = true;
        self
    }

    /// Validates and builds the instance.
    pub fn build(&mut self) -> Result<Instance, BuildError> {
        let nv = self.events.len();
        let nu = self.users.len();

        for (i, e) in self.events.iter().enumerate() {
            if e.capacity == 0 {
                return Err(BuildError::ZeroCapacity(EventId(i as u32)));
            }
        }

        let mu = match self.dense_mu.take() {
            Some(m) => {
                if m.len() != nv * nu {
                    return Err(BuildError::BadMatrixShape {
                        which: "utility",
                        expected: nv * nu,
                        got: m.len(),
                    });
                }
                m
            }
            None => {
                let mut m = vec![0.0f32; nv * nu];
                for &(v, u, val) in &self.sparse_mu {
                    if v.index() >= nv || u.index() >= nu {
                        return Err(BuildError::UnknownId(format!("utility({v}, {u})")));
                    }
                    m[u.index() * nv + v.index()] = val as f32;
                }
                m
            }
        };
        for (idx, &val) in mu.iter().enumerate() {
            if !(0.0..=1.0).contains(&val) || !val.is_finite() {
                return Err(BuildError::BadUtility {
                    event: EventId((idx % nv) as u32),
                    user: UserId((idx / nv) as u32),
                    value: f64::from(val),
                });
            }
        }

        let travel = self.travel.take().unwrap_or(TravelCost::Grid { time_per_unit: 0 });
        if let TravelCost::Explicit { user_event, event_event } = &travel {
            if user_event.len() != nu * nv {
                return Err(BuildError::BadMatrixShape {
                    which: "user_event",
                    expected: nu * nv,
                    got: user_event.len(),
                });
            }
            if event_event.len() != nv * nv {
                return Err(BuildError::BadMatrixShape {
                    which: "event_event",
                    expected: nv * nv,
                    got: event_event.len(),
                });
            }
            for i in 0..nv {
                for j in 0..nv {
                    let incompatible =
                        i == j || !self.events[i].time.precedes(self.events[j].time);
                    if incompatible && event_event[i * nv + j].is_finite() {
                        return Err(BuildError::FiniteCostForConflict(
                            EventId(i as u32),
                            EventId(j as u32),
                        ));
                    }
                }
            }
            if !self.skip_triangle_check {
                audit_triangle(&self.events, nu, user_event, event_event)?;
            }
        }

        let fees = if self.fees.is_empty() {
            Vec::new()
        } else {
            let mut f = vec![0u32; nv];
            for &(v, amount) in &self.fees {
                if v.index() >= nv {
                    return Err(BuildError::UnknownId(format!("fee({v})")));
                }
                f[v.index()] = amount;
            }
            f
        };

        Ok(Instance::assemble(
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.users),
            mu,
            travel,
            fees,
        ))
    }
}

/// Checks the triangle inequality over all finite-cost triples of an
/// explicit cost model. Eq. (3)'s incremental costs are only guaranteed
/// non-negative under this assumption, which the problem statement makes.
fn audit_triangle(
    events: &[Event],
    nu: usize,
    user_event: &[Cost],
    event_event: &[Cost],
) -> Result<(), BuildError> {
    let nv = events.len();
    let ee = |i: usize, j: usize| event_event[i * nv + j];
    let ue = |u: usize, v: usize| user_event[u * nv + v];
    // event-event-event: cost(i, k) ≤ cost(i, j) + cost(j, k)
    for i in 0..nv {
        for j in 0..nv {
            if ee(i, j).is_infinite() {
                continue;
            }
            for k in 0..nv {
                if ee(j, k).is_infinite() || ee(i, k).is_infinite() {
                    continue;
                }
                if ee(i, k) > ee(i, j).add(ee(j, k)) {
                    return Err(BuildError::TriangleViolation {
                        detail: format!(
                            "cost(v{i}, v{k}) = {} > cost(v{i}, v{j}) + cost(v{j}, v{k}) = {}",
                            ee(i, k),
                            ee(i, j).add(ee(j, k))
                        ),
                    });
                }
            }
        }
    }
    // user legs: cost(u, j) ≤ cost(u, i) + cost(i, j) and
    //            cost(i, j) ≤ cost(i, u) + cost(u, j)
    for u in 0..nu {
        for i in 0..nv {
            for j in 0..nv {
                if ee(i, j).is_infinite() {
                    continue;
                }
                if ue(u, j) > ue(u, i).add(ee(i, j)) {
                    return Err(BuildError::TriangleViolation {
                        detail: format!(
                            "cost(u{u}, v{j}) = {} > cost(u{u}, v{i}) + cost(v{i}, v{j}) = {}",
                            ue(u, j),
                            ue(u, i).add(ee(i, j))
                        ),
                    });
                }
                if ee(i, j) > ue(u, i).add(ue(u, j)) {
                    return Err(BuildError::TriangleViolation {
                        detail: format!(
                            "cost(v{i}, v{j}) = {} > cost(v{i}, u{u}) + cost(u{u}, v{j}) = {}",
                            ee(i, j),
                            ue(u, i).add(ue(u, j))
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn small_grid_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(5, 5), iv(10, 20));
        b.event(3, Point::new(2, 2), iv(5, 15)); // overlaps both
        let u0 = b.user(Point::new(1, 1), Cost::new(50));
        let u1 = b.user(Point::new(4, 4), Cost::new(30));
        b.utility(EventId(0), u0, 0.5);
        b.utility(EventId(1), u0, 0.7);
        b.utility(EventId(2), u1, 0.9);
        b.build().unwrap()
    }

    #[test]
    fn grid_event_costs_respect_time_order() {
        let inst = small_grid_instance();
        // v0 [0,10] precedes v1 [10,20]: distance 10
        assert_eq!(inst.cost_vv(EventId(0), EventId(1)), Cost::new(10));
        // reverse direction impossible
        assert!(inst.cost_vv(EventId(1), EventId(0)).is_infinite());
        // overlapping pairs are infinite both ways
        assert!(inst.cost_vv(EventId(0), EventId(2)).is_infinite());
        assert!(inst.cost_vv(EventId(2), EventId(0)).is_infinite());
        // diagonal is infinite (an event cannot follow itself)
        assert!(inst.cost_vv(EventId(0), EventId(0)).is_infinite());
    }

    #[test]
    fn compatible_and_conflict_ratio() {
        let inst = small_grid_instance();
        assert!(inst.compatible(EventId(0), EventId(1)));
        assert!(!inst.compatible(EventId(0), EventId(2)));
        assert!(!inst.compatible(EventId(1), EventId(2)));
        // pairs: (0,1) ok, (0,2) conflict, (1,2) conflict → cr = 2/3
        assert!((inst.conflict_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn utilities_default_to_zero() {
        let inst = small_grid_instance();
        assert_eq!(inst.mu(EventId(0), UserId(1)), 0.0);
        assert!((inst.mu(EventId(1), UserId(0)) - 0.7).abs() < 1e-6);
        let row = inst.mu_row(UserId(0));
        assert_eq!(row.len(), 3);
        assert!((f64::from(row[1]) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn user_event_costs_are_symmetric_distances() {
        let inst = small_grid_instance();
        assert_eq!(inst.cost_uv(UserId(0), EventId(0)), Cost::new(2));
        assert_eq!(inst.round_trip(UserId(0), EventId(0)), Cost::new(4));
    }

    #[test]
    fn travel_time_gating() {
        let mut b = InstanceBuilder::new();
        // gap of 5 between the events, distance 10
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(15, 20));
        b.user(Point::ORIGIN, Cost::new(100));
        b.travel(TravelCost::Grid { time_per_unit: 1 });
        let inst = b.build().unwrap();
        // needs 10 time units to travel but only 5 available
        assert!(inst.cost_vv(EventId(0), EventId(1)).is_infinite());

        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(25, 30));
        b.user(Point::ORIGIN, Cost::new(100));
        b.travel(TravelCost::Grid { time_per_unit: 1 });
        let inst = b.build().unwrap();
        assert_eq!(inst.cost_vv(EventId(0), EventId(1)), Cost::new(10));
    }

    #[test]
    fn zero_capacity_rejected() {
        let mut b = InstanceBuilder::new();
        b.event(0, Point::ORIGIN, iv(0, 1));
        assert_eq!(b.build().unwrap_err(), BuildError::ZeroCapacity(EventId(0)));
    }

    #[test]
    fn bad_utility_rejected() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 1));
        let u = b.user(Point::ORIGIN, Cost::new(5));
        b.utility(v, u, 1.5);
        assert!(matches!(b.build().unwrap_err(), BuildError::BadUtility { .. }));
    }

    #[test]
    fn explicit_matrix_shape_checked() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.user(Point::ORIGIN, Cost::new(5));
        b.travel(TravelCost::Explicit { user_event: vec![], event_event: vec![Cost::INFINITE] });
        assert!(matches!(b.build().unwrap_err(), BuildError::BadMatrixShape { .. }));
    }

    #[test]
    fn explicit_finite_cost_for_conflict_rejected() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 10));
        b.event(1, Point::ORIGIN, iv(5, 15));
        b.user(Point::ORIGIN, Cost::new(5));
        b.travel(TravelCost::Explicit {
            user_event: vec![Cost::new(1), Cost::new(1)],
            event_event: vec![
                Cost::INFINITE,
                Cost::new(3), // overlapping pair must be infinite
                Cost::INFINITE,
                Cost::INFINITE,
            ],
        });
        assert!(matches!(b.build().unwrap_err(), BuildError::FiniteCostForConflict(..)));
    }

    #[test]
    fn triangle_violation_rejected() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.event(1, Point::ORIGIN, iv(2, 3));
        b.event(1, Point::ORIGIN, iv(4, 5));
        b.user(Point::ORIGIN, Cost::new(50));
        // cost(v0, v2) = 10 > cost(v0, v1) + cost(v1, v2) = 2
        let inf = Cost::INFINITE;
        b.travel(TravelCost::Explicit {
            user_event: vec![Cost::new(5), Cost::new(5), Cost::new(5)],
            event_event: vec![
                inf,
                Cost::new(1),
                Cost::new(10),
                inf,
                inf,
                Cost::new(1),
                inf,
                inf,
                inf,
            ],
        });
        assert!(matches!(b.build().unwrap_err(), BuildError::TriangleViolation { .. }));
    }

    #[test]
    fn valid_explicit_instance_builds() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.event(1, Point::ORIGIN, iv(2, 3));
        b.user(Point::ORIGIN, Cost::new(50));
        let inf = Cost::INFINITE;
        b.travel(TravelCost::Explicit {
            user_event: vec![Cost::new(2), Cost::new(3)],
            event_event: vec![inf, Cost::new(4), inf, inf],
        });
        let inst = b.build().unwrap();
        assert_eq!(inst.cost_vv(EventId(0), EventId(1)), Cost::new(4));
        assert_eq!(inst.cost_uv(UserId(0), EventId(1)), Cost::new(3));
    }

    #[test]
    fn serde_roundtrip_rebuilds_derived_state() {
        let inst = small_grid_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.cost_vv(EventId(0), EventId(1)), Cost::new(10));
        assert_eq!(back.temporal().len(), 3);
    }

    #[test]
    fn fees_fold_into_directed_costs() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::new(0, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(4, 0), iv(10, 20));
        let u = b.user(Point::new(1, 0), Cost::new(100));
        b.utility(v0, u, 0.5);
        b.utility(v1, u, 0.5);
        b.fee(v0, 3).fee(v1, 9);
        let inst = b.build().unwrap();
        assert_eq!(inst.fee(v0), 3);
        assert_eq!(inst.fee(v1), 9);
        // inbound legs carry the target's fee
        assert_eq!(inst.cost_to_event(u, v0), Cost::new(1 + 3));
        assert_eq!(inst.cost_from_event(v0, u), Cost::new(1));
        assert_eq!(inst.cost_vv(v0, v1), Cost::new(4 + 9));
        // infeasible directions stay infinite
        assert!(inst.cost_vv(v1, v0).is_infinite());
        assert_eq!(inst.round_trip(u, v1), Cost::new(3 + 9 + 3));
    }

    #[test]
    fn fee_for_unknown_event_rejected() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.user(Point::ORIGIN, Cost::new(5));
        b.fee(EventId(7), 2);
        assert!(matches!(b.build().unwrap_err(), BuildError::UnknownId(_)));
    }

    #[test]
    fn no_fees_means_zero_fee_everywhere() {
        let inst = small_grid_instance();
        for v in inst.event_ids() {
            assert_eq!(inst.fee(v), 0);
            for u in inst.user_ids() {
                assert_eq!(inst.cost_to_event(u, v), inst.cost_uv(u, v));
            }
        }
    }

    #[test]
    fn restrict_candidates_zeroes_outside_mu() {
        let inst = small_grid_instance();
        let sets = vec![vec![EventId(1)], vec![EventId(0), EventId(2)]];
        let restricted = inst.restrict_candidates(&sets);
        assert_eq!(restricted.mu(EventId(0), UserId(0)), 0.0);
        assert!((restricted.mu(EventId(1), UserId(0)) - 0.7).abs() < 1e-6);
        assert!((restricted.mu(EventId(2), UserId(1)) - 0.9).abs() < 1e-6);
        assert_eq!(restricted.mu(EventId(1), UserId(1)), 0.0);
        // geometry and times untouched
        assert_eq!(restricted.cost_vv(EventId(0), EventId(1)), Cost::new(10));
    }

    #[test]
    #[should_panic(expected = "one candidate set per user")]
    fn restrict_candidates_checks_arity() {
        let inst = small_grid_instance();
        let _ = inst.restrict_candidates(&[vec![]]);
    }

    #[test]
    fn total_utility_mass() {
        let inst = small_grid_instance();
        assert!((inst.total_utility_mass() - 2.1).abs() < 1e-5);
    }

    /// Ω is reported on instances that are never solved (a serving
    /// client checking responses against its own copy), so it must read
    /// the stored μ and leave the flat view unbuilt.
    #[test]
    fn omega_leaves_an_unfrozen_instance_unfrozen() {
        use crate::{Planning, Schedule};
        let inst = small_grid_instance();
        let schedules = vec![
            Schedule::from_events_unchecked(vec![EventId(0), EventId(1)]),
            Schedule::from_events_unchecked(vec![EventId(2)]),
        ];
        let planning = Planning::from_schedules(&inst, schedules);
        assert!(inst.flat.get().is_none(), "fixture starts unfrozen");
        assert!((planning.omega(&inst) - 2.1).abs() < 1e-5);
        assert!(inst.flat.get().is_none(), "omega built the flat view");
    }
}
