//! Seeded open-loop arrival schedules.
//!
//! The benchmark's inputs come only from `--seed`: every schedule and
//! every request payload choice is drawn from a SplitMix64 stream keyed
//! by the seed and a label, so the same seed yields a byte-identical
//! schedule on every machine.

/// SplitMix64: tiny, seedable, and bit-for-bit portable.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Stream for `seed` under a distinguishing `label`.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Self(seed ^ h.rotate_left(17))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled request: when it is due (nanoseconds after the phase
/// starts) and which pre-built payload it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds from phase start.
    pub at_ns: u64,
    /// Index into the workload's request pool.
    pub payload: usize,
}

/// Poisson arrivals at `rate` per second over `seconds`, each carrying a
/// uniformly drawn payload index below `pool`.
pub fn poisson(seed: u64, label: &str, rate: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && pool > 0, "schedule needs a rate and a pool");
    let mut rng = SplitMix::new(seed, label);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(Arrival {
            at_ns: t as u64,
            payload: rng.below(pool),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical byte encoding of a schedule (little-endian pairs), used to
    /// check that a seed reproduces its schedule exactly.
    fn to_bytes(schedule: &[Arrival]) -> Vec<u8> {
        let mut out = Vec::with_capacity(schedule.len() * 16);
        for a in schedule {
            out.extend_from_slice(&a.at_ns.to_le_bytes());
            out.extend_from_slice(&(a.payload as u64).to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_schedule() {
        let a = to_bytes(&poisson(42, "conn-0", 5000.0, 2.0, 64));
        let b = to_bytes(&poisson(42, "conn-0", 5000.0, 2.0, 64));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let other_seed = to_bytes(&poisson(43, "conn-0", 5000.0, 2.0, 64));
        let other_label = to_bytes(&poisson(42, "conn-1", 5000.0, 2.0, 64));
        assert_ne!(a, other_seed);
        assert_ne!(a, other_label);
    }

    #[test]
    fn poisson_rate_and_order() {
        let s = poisson(7, "rate", 10_000.0, 3.0, 16);
        let n = s.len() as f64;
        // 30k expected arrivals; a Poisson count's sd is ~173.
        assert!((n - 30_000.0).abs() < 1_000.0, "count {n}");
        assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(s.iter().all(|a| a.payload < 16 && a.at_ns < 3_000_000_000));
    }
}
