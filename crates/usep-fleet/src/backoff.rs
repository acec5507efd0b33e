//! Capped exponential backoff with deterministic jitter.
//!
//! The router waits before failing a request over to the next shard,
//! and the supervisor waits before restarting a dead shard: in both
//! cases the thing that failed (a shard process, its socket) may
//! recover with time, and an immediate retry mostly hits the same
//! fault. The delay doubles per attempt up to a cap, and is jittered
//! into `[delay/2, delay]` so a burst of failovers or restarts does
//! not retry in lockstep ("equal jitter"). The jitter is a pure hash
//! of `(seed, attempt)` — no RNG state, no clock — so a given request
//! or shard retries on an identical schedule every time, which keeps
//! failover tests and trace diffs deterministic.

use std::time::Duration;

/// Backoff policy: `base * 2^(attempt-1)` capped at `cap`, jittered.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delay before the first retry (attempt 1), pre-jitter.
    pub base: Duration,
    /// Upper bound on the pre-jitter delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { base: Duration::from_millis(25), cap: Duration::from_millis(400) }
    }
}

/// SplitMix64 — the same tiny deterministic mixer the generators use.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (1-based; 0
    /// returns zero). `seed` individualizes the jitter per request or
    /// shard — callers hash the request id or shard name into it.
    ///
    /// The exponential factor is computed with a checked shift and the
    /// base×factor product with saturating u128 arithmetic, so no
    /// `attempt` — including ≥ 32, where a naive `1 << (attempt-1)`
    /// overflows — can wrap the delay below the cap. The supervisor
    /// feeds unbounded restart counts in here.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u128.checked_shl(attempt - 1).unwrap_or(u128::MAX);
        let uncapped_ns = self.base.as_nanos().saturating_mul(factor);
        let full_ns = uncapped_ns.min(self.cap.as_nanos());
        let full = Duration::from_nanos(u64::try_from(full_ns).unwrap_or(u64::MAX));
        let half = full / 2;
        let jitter_span = (full - half).as_nanos() as u64;
        if jitter_span == 0 {
            return full;
        }
        let jitter = splitmix64(seed ^ u64::from(attempt)) % (jitter_span + 1);
        half + Duration::from_nanos(jitter)
    }
}

/// A stable 64-bit hash of a request id or shard name, used as the
/// jitter seed.
pub fn seed_from_id(id: &str) -> u64 {
    // FNV-1a: tiny, stable across platforms and runs
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_then_cap() {
        let p = RetryPolicy { base: Duration::from_millis(10), cap: Duration::from_millis(100) };
        // jitter keeps each delay in [full/2, full]
        for (attempt, full_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 80), (5, 100), (9, 100)] {
            let d = p.delay(attempt, 42);
            assert!(
                d >= Duration::from_millis(full_ms) / 2 && d <= Duration::from_millis(full_ms),
                "attempt {attempt}: {d:?} outside [{}/2, {}] ms",
                full_ms,
                full_ms
            );
        }
        assert_eq!(p.delay(0, 42), Duration::ZERO);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(3, 7), p.delay(3, 7));
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32u64).map(|s| p.delay(3, s)).collect();
        assert!(distinct.len() > 16, "jitter should spread seeds: {}", distinct.len());
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let p = RetryPolicy::default();
        assert!(p.delay(u32::MAX, 1) <= p.cap);
    }

    #[test]
    fn id_seed_is_stable() {
        assert_eq!(seed_from_id("req-1"), seed_from_id("req-1"));
        assert_ne!(seed_from_id("req-1"), seed_from_id("req-2"));
    }
}
