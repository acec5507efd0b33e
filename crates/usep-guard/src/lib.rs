//! Resource governance for USEP solves.
//!
//! The solvers in `usep-algos` are anytime-shaped: RatioGreedy grows a
//! planning one assignment at a time and the decomposed solvers
//! (DeDP/DeDPO/DeGreedy) finish one user before starting the next, so
//! every prefix of their work is itself a constraint-valid planning.
//! This crate supplies the machinery to stop them at such a prefix:
//!
//! * [`SolveBudget`] — a declarative budget: optional wall-clock
//!   deadline, optional memory ceiling in bytes, optional cooperative
//!   [`CancelToken`].
//! * [`Guard`] — the runtime handle a solver polls from its hot loop
//!   via [`Guard::checkpoint`] and charges allocations against via
//!   [`Guard::try_reserve`]. A guard trips at most once and stays
//!   tripped (the first reason wins).
//! * [`SolveOutcome`] — the tag attached to the returned planning:
//!   [`SolveOutcome::Complete`] or [`SolveOutcome::Truncated`] with a
//!   [`TruncationReason`].
//!
//! Like `usep-trace`, this crate has no dependencies: the checkpoint
//! sits inside every solver's innermost loop and must never allocate.
//! An unlimited guard's checkpoint is a single boolean load.
//!
//! For fault injection, [`SolveBudget::with_chaos_trip`] arms a
//! deterministic trip at the *n*-th checkpoint, which lets a test
//! simulate "the deadline expired exactly here" at every checkpoint a
//! solver ever reaches.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a solve stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// An allocation would have exceeded the memory ceiling.
    MemoryCeiling,
    /// The [`CancelToken`] was cancelled from another thread.
    Cancelled,
}

impl TruncationReason {
    /// Stable snake_case name, used in traces, measurements and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            TruncationReason::Deadline => "deadline",
            TruncationReason::MemoryCeiling => "memory_ceiling",
            TruncationReason::Cancelled => "cancelled",
        }
    }

    fn encode(self) -> u8 {
        match self {
            TruncationReason::Deadline => 1,
            TruncationReason::MemoryCeiling => 2,
            TruncationReason::Cancelled => 3,
        }
    }

    fn decode(code: u8) -> Option<TruncationReason> {
        match code {
            1 => Some(TruncationReason::Deadline),
            2 => Some(TruncationReason::MemoryCeiling),
            3 => Some(TruncationReason::Cancelled),
            _ => None,
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a guarded solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveOutcome {
    /// The solver ran to its natural end; the planning is the same one
    /// an unguarded solve would have produced.
    Complete,
    /// The guard tripped; the planning is the constraint-valid prefix
    /// built up to the last checkpoint.
    Truncated {
        /// What tripped the guard.
        reason: TruncationReason,
    },
}

impl SolveOutcome {
    /// True for [`SolveOutcome::Complete`].
    pub fn is_complete(self) -> bool {
        matches!(self, SolveOutcome::Complete)
    }

    /// The truncation reason, if any.
    pub fn reason(self) -> Option<TruncationReason> {
        match self {
            SolveOutcome::Complete => None,
            SolveOutcome::Truncated { reason } => Some(reason),
        }
    }

    /// Stable one-token description: `complete`, `truncated:deadline`,
    /// `truncated:memory_ceiling` or `truncated:cancelled`.
    pub fn describe(self) -> String {
        match self {
            SolveOutcome::Complete => "complete".to_string(),
            SolveOutcome::Truncated { reason } => format!("truncated:{}", reason.name()),
        }
    }
}

impl std::fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A cooperative cancellation flag, cheap to clone and share across
/// threads. Cancelling is sticky.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Guards built from this token trip with
    /// [`TruncationReason::Cancelled`] at their next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A declarative resource budget for one solve (or one orchestrated
/// chain of solves). All limits are optional; the default budget is
/// unlimited and adds no overhead beyond a branch per checkpoint.
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    deadline: Option<Duration>,
    memory_ceiling: Option<usize>,
    cancel: Option<CancelToken>,
    chaos_trip: Option<(u64, TruncationReason)>,
}

impl SolveBudget {
    /// A budget with no limits.
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// Sets a wall-clock deadline, measured from [`Guard::new`].
    pub fn with_deadline(mut self, deadline: Duration) -> SolveBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a ceiling on bytes charged via [`Guard::try_reserve`].
    pub fn with_memory_ceiling(mut self, bytes: usize) -> SolveBudget {
        self.memory_ceiling = Some(bytes);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> SolveBudget {
        self.cancel = Some(token);
        self
    }

    /// Arms a deterministic fault-injection trip: the guard trips with
    /// `reason` once `checkpoint` checkpoints have been observed
    /// (`0` trips at the very first checkpoint). Pass `u64::MAX` to
    /// merely count checkpoints without ever tripping.
    pub fn with_chaos_trip(mut self, checkpoint: u64, reason: TruncationReason) -> SolveBudget {
        self.chaos_trip = Some((checkpoint, reason));
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured memory ceiling in bytes, if any.
    pub fn memory_ceiling(&self) -> Option<usize> {
        self.memory_ceiling
    }

    /// True when no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.memory_ceiling.is_none()
            && self.cancel.is_none()
            && self.chaos_trip.is_none()
    }

    /// A copy of this budget with the deadline replaced by the time
    /// remaining out of `total` after `elapsed` (used by orchestrators
    /// that spend one budget across a fallback chain). Returns `None`
    /// when a configured deadline is already exhausted.
    pub fn with_remaining_deadline(&self, elapsed: Duration) -> Option<SolveBudget> {
        let mut next = self.clone();
        if let Some(total) = self.deadline {
            if elapsed >= total {
                return None;
            }
            next.deadline = Some(total - elapsed);
        }
        Some(next)
    }
}

/// A shared, non-sticky byte-reservation pool for admission control.
///
/// [`Guard::try_reserve`] is the right shape *inside* one solve: a
/// refused reservation trips the guard and the whole solve winds down.
/// A long-running server needs the opposite semantics — refusing one
/// request's reservation must leave the pool serving every other
/// request — so the ledger refuses without tripping anything, and
/// releases return headroom immediately.
///
/// The accounting is the same saturating fetch-add/fetch-sub scheme as
/// the guard's, so a ledger and per-solve guards can share one mental
/// model: the ledger bounds what is admitted, each admitted solve's
/// guard bounds what that solve allocates.
#[derive(Debug)]
pub struct MemoryLedger {
    capacity: usize,
    in_use: AtomicUsize,
}

impl MemoryLedger {
    /// A ledger with `capacity` reservable bytes.
    pub fn new(capacity: usize) -> MemoryLedger {
        MemoryLedger { capacity, in_use: AtomicUsize::new(0) }
    }

    /// Reserves `bytes` if they fit under the capacity. On `false`
    /// nothing was reserved and the ledger is unchanged — later
    /// (smaller, or post-release) reservations may still succeed.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let prev = self.in_use.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.capacity {
            self.in_use.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Returns a reservation made with [`MemoryLedger::try_reserve`].
    pub fn release(&self, bytes: usize) {
        let _ = self.in_use.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// The reservable capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

const NOT_TRIPPED: u8 = 0;

/// The runtime handle solvers poll. Construction captures the start
/// instant for deadline accounting; the guard is `Sync`, so one guard
/// can serve a solver that fans work out across threads.
#[derive(Debug)]
pub struct Guard {
    active: bool,
    deadline: Option<Instant>,
    ceiling: Option<usize>,
    cancel: Option<CancelToken>,
    chaos_trip: Option<(u64, TruncationReason)>,
    checkpoints: AtomicU64,
    reserved: AtomicUsize,
    tripped: AtomicU8,
}

impl Guard {
    /// Starts the clock on `budget` and returns the handle to poll.
    pub fn new(budget: &SolveBudget) -> Guard {
        Guard {
            active: !budget.is_unlimited(),
            deadline: budget.deadline.map(|d| Instant::now() + d),
            ceiling: budget.memory_ceiling,
            cancel: budget.cancel.clone(),
            chaos_trip: budget.chaos_trip,
            checkpoints: AtomicU64::new(0),
            reserved: AtomicUsize::new(0),
            tripped: AtomicU8::new(NOT_TRIPPED),
        }
    }

    /// A guard that never trips; its checkpoint is a single branch.
    pub fn unlimited() -> Guard {
        Guard::new(&SolveBudget::unlimited())
    }

    /// A shared `'static` unlimited guard, for APIs that take
    /// `&Guard` but have no budget to enforce (e.g. a solver's plain
    /// `solve` path delegating to its guarded implementation).
    pub fn none() -> &'static Guard {
        static NONE: OnceLock<Guard> = OnceLock::new();
        NONE.get_or_init(Guard::unlimited)
    }

    /// Polls the budget. Returns `true` when the solver must stop and
    /// return its best-so-far planning. Once tripped, every later call
    /// returns `true`.
    pub fn checkpoint(&self) -> bool {
        if !self.active {
            return false;
        }
        if self.tripped.load(Ordering::Relaxed) != NOT_TRIPPED {
            return true;
        }
        let seen = self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if let Some((at, reason)) = self.chaos_trip {
            if seen >= at {
                self.trip(reason);
                return true;
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(TruncationReason::Cancelled);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(TruncationReason::Deadline);
                return true;
            }
        }
        false
    }

    /// Charges `bytes` against the memory ceiling before a large
    /// allocation. On `false` the reservation was refused and the guard
    /// has tripped with [`TruncationReason::MemoryCeiling`]; the caller
    /// must not allocate. Guards that are already tripped refuse every
    /// reservation.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        if self.tripped.load(Ordering::Relaxed) != NOT_TRIPPED {
            return false;
        }
        if let Some(ceiling) = self.ceiling {
            let prev = self.reserved.fetch_add(bytes, Ordering::Relaxed);
            if prev.saturating_add(bytes) > ceiling {
                self.reserved.fetch_sub(bytes, Ordering::Relaxed);
                self.trip(TruncationReason::MemoryCeiling);
                return false;
            }
        }
        true
    }

    /// Returns a reservation made with [`Guard::try_reserve`] (after
    /// the allocation is dropped).
    pub fn release(&self, bytes: usize) {
        if self.ceiling.is_some() {
            let _ =
                self.reserved
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                        Some(cur.saturating_sub(bytes))
                    });
        }
    }

    /// Trips the guard manually. The first reason recorded wins.
    pub fn trip(&self, reason: TruncationReason) {
        let _ = self.tripped.compare_exchange(
            NOT_TRIPPED,
            reason.encode(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the guard has tripped.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) != NOT_TRIPPED
    }

    /// Whether any limit is configured. Solvers with a legacy
    /// fail-fast path (e.g. a panic on an absurd table size) keep it
    /// when the guard is inactive — tripping a shared unlimited guard
    /// would poison every later solve through it.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The outcome tag for the solve this guard supervised.
    pub fn outcome(&self) -> SolveOutcome {
        match TruncationReason::decode(self.tripped.load(Ordering::Relaxed)) {
            None => SolveOutcome::Complete,
            Some(reason) => SolveOutcome::Truncated { reason },
        }
    }

    /// Checkpoints observed so far (only counted on active guards;
    /// an unlimited guard always reports zero).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Bytes currently charged against the ceiling.
    pub fn reserved_bytes(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            assert!(!g.checkpoint());
        }
        assert!(g.try_reserve(usize::MAX));
        assert_eq!(g.outcome(), SolveOutcome::Complete);
        assert_eq!(g.checkpoints(), 0);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let budget = SolveBudget::unlimited().with_deadline(Duration::ZERO);
        let g = Guard::new(&budget);
        assert!(g.checkpoint());
        assert_eq!(
            g.outcome(),
            SolveOutcome::Truncated {
                reason: TruncationReason::Deadline
            }
        );
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let budget = SolveBudget::unlimited().with_deadline(Duration::from_secs(3600));
        let g = Guard::new(&budget);
        for _ in 0..1000 {
            assert!(!g.checkpoint());
        }
        assert_eq!(g.outcome(), SolveOutcome::Complete);
        assert_eq!(g.checkpoints(), 1000);
    }

    #[test]
    fn cancel_token_trips_at_next_checkpoint() {
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(token.clone());
        let g = Guard::new(&budget);
        assert!(!g.checkpoint());
        token.cancel();
        assert!(g.checkpoint());
        assert_eq!(g.outcome().reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn memory_ceiling_refuses_and_trips() {
        let budget = SolveBudget::unlimited().with_memory_ceiling(1024);
        let g = Guard::new(&budget);
        assert!(g.try_reserve(512));
        assert!(g.try_reserve(512));
        assert!(!g.try_reserve(1));
        assert_eq!(g.outcome().reason(), Some(TruncationReason::MemoryCeiling));
        // once tripped, every reservation is refused
        assert!(!g.try_reserve(0));
    }

    #[test]
    fn release_returns_headroom_before_any_trip() {
        let budget = SolveBudget::unlimited().with_memory_ceiling(1024);
        let g = Guard::new(&budget);
        assert!(g.try_reserve(1024));
        g.release(1024);
        assert_eq!(g.reserved_bytes(), 0);
        assert!(g.try_reserve(1024));
    }

    #[test]
    fn chaos_trip_fires_at_exact_checkpoint() {
        let budget =
            SolveBudget::unlimited().with_chaos_trip(3, TruncationReason::Deadline);
        let g = Guard::new(&budget);
        assert!(!g.checkpoint()); // 0
        assert!(!g.checkpoint()); // 1
        assert!(!g.checkpoint()); // 2
        assert!(g.checkpoint()); // 3 → trip
        assert_eq!(g.outcome().reason(), Some(TruncationReason::Deadline));
    }

    #[test]
    fn chaos_sentinel_counts_without_tripping() {
        let budget =
            SolveBudget::unlimited().with_chaos_trip(u64::MAX, TruncationReason::Deadline);
        let g = Guard::new(&budget);
        for _ in 0..57 {
            assert!(!g.checkpoint());
        }
        assert_eq!(g.checkpoints(), 57);
        assert_eq!(g.outcome(), SolveOutcome::Complete);
    }

    #[test]
    fn first_trip_reason_wins() {
        let g = Guard::unlimited();
        g.trip(TruncationReason::Cancelled);
        g.trip(TruncationReason::Deadline);
        assert_eq!(g.outcome().reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn remaining_deadline_splits_budget() {
        let budget = SolveBudget::unlimited().with_deadline(Duration::from_millis(100));
        let rest = budget
            .with_remaining_deadline(Duration::from_millis(40))
            .expect("time left");
        assert_eq!(rest.deadline(), Some(Duration::from_millis(60)));
        assert!(budget
            .with_remaining_deadline(Duration::from_millis(100))
            .is_none());
        // unlimited budgets always have time left
        assert!(SolveBudget::unlimited()
            .with_remaining_deadline(Duration::from_secs(999))
            .is_some());
    }

    #[test]
    fn ledger_refusals_are_not_sticky() {
        let ledger = MemoryLedger::new(1000);
        assert!(ledger.try_reserve(600));
        // refused: does not fit — but the ledger keeps serving
        assert!(!ledger.try_reserve(500));
        assert_eq!(ledger.in_use(), 600);
        assert!(ledger.try_reserve(400));
        assert!(!ledger.try_reserve(1));
        ledger.release(600);
        assert!(ledger.try_reserve(600));
        assert_eq!(ledger.in_use(), 1000);
        assert_eq!(ledger.capacity(), 1000);
    }

    #[test]
    fn ledger_release_saturates_at_zero() {
        let ledger = MemoryLedger::new(10);
        ledger.release(100);
        assert_eq!(ledger.in_use(), 0);
        assert!(ledger.try_reserve(10));
    }

    #[test]
    fn describe_strings_are_stable() {
        assert_eq!(SolveOutcome::Complete.describe(), "complete");
        assert_eq!(
            SolveOutcome::Truncated {
                reason: TruncationReason::MemoryCeiling
            }
            .describe(),
            "truncated:memory_ceiling"
        );
        assert_eq!(TruncationReason::Cancelled.to_string(), "cancelled");
    }
}
