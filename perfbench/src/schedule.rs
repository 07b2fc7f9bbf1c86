//! Seeded open-loop arrival schedules: Poisson send times, each with a
//! `(road, τ)` query drawn uniformly over the valid range.

/// Splitmix64: a small, well-mixed generator, so a schedule depends on
/// nothing but its seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` never sees zero.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Send time, nanoseconds after the phase starts.
    pub at_ns: u64,
    pub road: usize,
    pub tau: usize,
}

/// The valid query space of a served corridor.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpace {
    pub roads: usize,
    /// Valid target intervals `tau_lo..tau_hi`.
    pub tau_lo: usize,
    pub tau_hi: usize,
}

/// A Poisson stream at `rate` requests/s lasting `seconds`.
pub fn poisson(rate: f64, seconds: f64, space: QuerySpace, seed: u64) -> Vec<Arrival> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "poisson: rate and length must be positive"
    );
    let mut rng = SplitMix::new(seed);
    let end_ns = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate * 1e9;
        if t >= end_ns {
            return out;
        }
        out.push(Arrival {
            at_ns: t as u64,
            road: rng.below(0, space.roads),
            tau: rng.below(space.tau_lo, space.tau_hi),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPACE: QuerySpace = QuerySpace {
        roads: 5,
        tau_lo: 13,
        tau_hi: 2304,
    };

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(2000.0, 2.0, SPACE, 42);
        let b = poisson(2000.0, 2.0, SPACE, 42);
        assert_eq!(a, b);
        let c = poisson(2000.0, 2.0, SPACE, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ordered_in_range_and_near_the_rate() {
        let s = poisson(5000.0, 4.0, SPACE, 7);
        assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(s.iter().all(|a| a.at_ns < 4_000_000_000));
        assert!(s.iter().all(|a| a.road < 5 && (13..2304).contains(&a.tau)));
        // 20 000 expected arrivals; Poisson sd is ~141.
        let n = s.len() as f64;
        assert!((n - 20_000.0).abs() < 1_000.0, "{n} arrivals");
        // Every road is drawn.
        for r in 0..5 {
            assert!(s.iter().any(|a| a.road == r));
        }
    }
}
