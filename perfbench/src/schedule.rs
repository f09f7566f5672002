//! Seeded open-loop arrival schedules.
//!
//! Every operation of a run gets a *due* time drawn before the run
//! starts: exponential gaps at the lane's rate (a Poisson process), from
//! an RNG seeded by the workload seed. Latencies are then measured from
//! the due time, so a stall is charged to every request queued behind
//! it instead of silently thinning the offered load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One scheduled operation: when it is due (offset from the lane's
/// start) and what it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Due<T> {
    /// Offset of the due time from the lane's start.
    pub at: Duration,
    /// The operation.
    pub op: T,
}

/// Poisson arrival offsets at `rate_per_s` within `[0, span)`.
pub fn poisson(rng: &mut StdRng, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 − u lies in (0, 1].
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Derives an independent RNG for one purpose of a run from the
/// workload seed, so adding a stream never shifts another stream's
/// draws.
pub fn stream(seed: u64, purpose: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.rotate_left(17);
    for b in purpose.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(&mut stream(7, "lane-0"), 200.0, Duration::from_secs(5));
        let b = poisson(&mut stream(7, "lane-0"), 200.0, Duration::from_secs(5));
        assert_eq!(a, b);
        let c = poisson(&mut stream(8, "lane-0"), 200.0, Duration::from_secs(5));
        assert_ne!(a, c);
        let d = poisson(&mut stream(7, "lane-1"), 200.0, Duration::from_secs(5));
        assert_ne!(a, d);
    }

    #[test]
    fn schedule_is_sorted_bounded_and_near_its_rate() {
        let span = Duration::from_secs(50);
        let s = poisson(&mut stream(1, "rate"), 200.0, span);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| t < span));
        // 10,000 expected arrivals; a Poisson count has sd 100.
        assert!((9_500..10_500).contains(&s.len()), "{}", s.len());
    }
}
