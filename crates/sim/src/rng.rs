//! Seeded, splittable randomness for reproducible experiments.
//!
//! Every Sperke experiment derives all of its randomness from a single
//! `u64` seed. [`SimRng`] wraps a counter-based generator
//! (SplitMix64 feeding xoshiro256++-style state) implemented locally so
//! that determinism does not depend on the `rand` crate's unspecified
//! cross-version stability. The `rand` traits are implemented on top, so
//! `SimRng` interoperates with distributions from the ecosystem.

use rand::RngCore;

/// A deterministic 64-bit PRNG (xoshiro256++), seedable from a `u64`.
///
/// Use [`SimRng::split`] to derive independent sub-streams for different
/// subsystems, e.g. one for the channel model and one for viewer
/// behaviour, so adding randomness to one subsystem does not perturb
/// another.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent generator labelled by `stream`.
    ///
    /// Splitting with different labels yields statistically independent
    /// streams; splitting twice with the same label yields the same stream.
    pub fn split(&self, stream: u64) -> SimRng {
        // Mix the label through SplitMix so adjacent labels decorrelate.
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping (Lemire); slight bias is
        // negligible for simulation workloads (< 2^-64).
        ((self.next_u64_raw() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// Standard normal sample (Box–Muller; one value per call).
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 > f64::EPSILON {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.gaussian()
    }

    /// Exponential sample with the given rate (`lambda`). Panics if rate <= 0.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform(); // avoid ln(0)
        -u.ln() / rate
    }

    /// Sample an index from a discrete distribution given by `weights`.
    ///
    /// Zero/negative weights are treated as zero. Panics if all weights
    /// are non-positive or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weighted_index needs positive total weight");
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let root = SimRng::new(42);
        let mut a1 = root.split(1);
        let mut a2 = root.split(1);
        let mut b = root.split(2);
        assert_eq!(a1.next_u64_raw(), a2.next_u64_raw());
        assert_ne!(a1.next_u64_raw(), b.next_u64_raw());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = SimRng::new(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(9);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn fill_bytes_handles_uneven_lengths() {
        let mut rng = SimRng::new(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
