//! Capped exponential backoff with deterministic jitter — the retry policy
//! of the daemon's periodic persist save.
//!
//! The policy is the standard one: the n-th consecutive failure waits
//! `base · 2ⁿ`, capped, with ±25 % jitter so retries against a shared
//! failing dependency (a full disk) do not fall into lockstep.
//! Jitter comes from a seeded xorshift instead of a clock or OS entropy:
//! the workspace is offline (no `rand`), and a deterministic sequence makes
//! the backoff schedule reproducible in tests.

/// Capped exponential backoff state for one supervised dependency.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Delay after the first failure, in milliseconds.
    base_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    cap_ms: u64,
    /// Consecutive failures so far.
    failures: u32,
    /// Jitter PRNG state (xorshift64*).
    rng: u64,
}

impl Backoff {
    /// A fresh (zero-failure) backoff with the given base and cap, jittered
    /// from `seed` (any value; 0 is remapped).
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            failures: 0,
            rng: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Records a failure and returns how long to wait before the next
    /// attempt: `base · 2^(failures-1)` capped at `cap`, ±25 % jitter.
    pub fn next_delay_ms(&mut self) -> u64 {
        self.failures = self.failures.saturating_add(1);
        let exp = self.failures.saturating_sub(1).min(32);
        let raw = self.base_ms.saturating_mul(1u64 << exp).min(self.cap_ms);
        // xorshift64*: cheap, seedable, good enough to de-synchronize retries.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter_span = raw / 2; // ±25% → a span of 50% centered on raw
        if jitter_span == 0 {
            return raw.max(1);
        }
        let offset = self.rng % (jitter_span + 1);
        (raw - jitter_span / 2 + offset).max(1)
    }

    /// Records a success: the next failure starts the schedule over at the
    /// base delay.
    pub fn reset(&mut self) {
        self.failures = 0;
    }

    /// Consecutive failures recorded since the last reset.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Whether the schedule is currently backing off (≥ 1 failure).
    pub fn active(&self) -> bool {
        self.failures > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_to_the_cap() {
        let mut b = Backoff::new(100, 2_000, 42);
        let delays: Vec<u64> = (0..8).map(|_| b.next_delay_ms()).collect();
        // Jitter is ±25%, so delay n sits within [0.75, 1.25]·min(base·2ⁿ, cap).
        for (n, d) in delays.iter().enumerate() {
            let raw = (100u64 << n.min(32)).min(2_000);
            assert!(
                *d >= raw * 3 / 4 && *d <= raw * 5 / 4,
                "delay {n} = {d}, raw {raw}"
            );
        }
        // And the late delays are capped, never growing unbounded.
        assert!(delays[7] <= 2_500);
    }

    #[test]
    fn reset_restarts_the_schedule() {
        let mut b = Backoff::new(100, 10_000, 7);
        for _ in 0..5 {
            b.next_delay_ms();
        }
        assert!(b.active());
        b.reset();
        assert!(!b.active());
        assert!(b.next_delay_ms() <= 125);
    }

    #[test]
    fn jitter_desynchronizes_identical_schedules() {
        let mut a = Backoff::new(100, 10_000, 1);
        let mut b = Backoff::new(100, 10_000, 2);
        let a_delays: Vec<u64> = (0..6).map(|_| a.next_delay_ms()).collect();
        let b_delays: Vec<u64> = (0..6).map(|_| b.next_delay_ms()).collect();
        assert_ne!(a_delays, b_delays);
    }

    #[test]
    fn zero_base_is_remapped_to_one() {
        let mut b = Backoff::new(0, 0, 3);
        assert!(b.next_delay_ms() >= 1);
    }
}
