//! Deterministic pseudo-random number generation for the whole workspace.
//!
//! Experiments in this repository must be exactly reproducible across
//! machines and runs, so nothing may consume OS entropy. This module
//! provides a tiny, well-tested generator built on the SplitMix64 mixing
//! function (Steele, Lea & Flood, OOPSLA 2014), which is statistically
//! strong enough for workload generation and timing-noise synthesis.
//!
//! # Example
//!
//! ```
//! use gpp_graph::rng::Rng64;
//!
//! let mut a = Rng64::new(42);
//! let mut b = Rng64::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
//! ```

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// `Rng64` is `Copy`-cheap to clone and never fails. Two generators
/// constructed with the same seed produce identical streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift rejection-free range reduction (Lemire).
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a standard normal sample (Box–Muller transform).
    fn next_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a log-normal sample with the given parameters of the
    /// underlying normal distribution.
    ///
    /// Used by the simulator to model multiplicative timing noise:
    /// `exp(mu + sigma * N(0,1))`.
    pub fn next_log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.next_normal()).exp()
    }

    /// Derives an independent child generator; used to give each
    /// (application, input, chip, configuration) cell of the study its own
    /// stream so that adding cells never perturbs existing ones.
    pub fn fork(&mut self, stream: u64) -> Rng64 {
        let mut mixer = Rng64::new(self.next_u64() ^ stream.rotate_left(17));
        Rng64::new(mixer.next_u64())
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Byte-wise 64-bit FNV-1a over `bytes`: a fixed, platform-independent
/// hash for deriving seeds and content keys from names and numbers.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `cases` randomized test cases, case `c` drawing from
/// `Rng64::new(seed).fork(c)`: every run draws the same cases. When a case
/// panics, its seed and number go to stderr as the panic unwinds. Failing
/// cases are not shrunk.
pub fn for_cases(seed: u64, cases: u64, mut case: impl FnMut(&mut Rng64)) {
    struct Report(u64, u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                use std::io::Write as _;
                // Unlike `eprintln!`, a failed write cannot panic again
                // mid-unwind, which would abort.
                let (seed, case) = (self.0, self.1);
                let _ = writeln!(
                    std::io::stderr(),
                    "failing case: for_cases seed {seed:#x}, case {case}"
                );
            }
        }
    }
    for c in 0..cases {
        let _report = Report(seed, c);
        case(&mut Rng64::new(seed).fork(c));
    }
}

/// Tokens that [`mutate`] swaps into JSON: numbers past every range, signed
/// zeros, a lone surrogate escape, and values of the wrong type.
pub const JSON_TOKENS: &[&str] = &[
    "1e400",
    "-1e400",
    "1e-400",
    "5e-324",
    "-0",
    "0",
    "-1",
    "4294967296",
    "18446744073709551616",
    "NaN",
    "null",
    "true",
    "\"\"",
    "\\ud800",
    "\"\\ud800\"",
    "[]",
    "{}",
];

/// Applies one to three random edits to `bytes`, the mutation step of a
/// reader's seeded no-panic loop: flip one bit, delete a short run,
/// truncate, or replace the token around a position (a maximal run of
/// bytes outside `,:;()[]{}"'=` and whitespace) with one of `tokens`.
///
/// # Panics
///
/// Panics if `tokens` is empty.
pub fn mutate(rng: &mut Rng64, bytes: &mut Vec<u8>, tokens: &[&str]) {
    let delim = |b: &u8| b",:;()[]{}\"'= \t\r\n".contains(b);
    for _ in 0..=rng.gen_range(3) {
        let at = rng.gen_range(bytes.len() as u64 + 1) as usize;
        match rng.gen_range(8) {
            0..=2 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(8),
            3 | 4 => {
                let end = bytes.len().min(at + 1 + rng.gen_range(8) as usize);
                bytes.drain(at..end);
            }
            5 => bytes.truncate(at),
            _ => {
                let token = tokens[rng.gen_range(tokens.len() as u64) as usize];
                let start = bytes[..at].iter().rposition(delim).map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(delim)
                    .map_or(bytes.len(), |i| at + i);
                bytes.splice(start..end, token.bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_is_respected() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        Rng64::new(0).gen_range(0);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = Rng64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_roughly_uniform() {
        let mut r = Rng64::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut r = Rng64::new(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = Rng64::new(3);
        for _ in 0..1_000 {
            assert!(r.next_log_normal(0.0, 0.05) > 0.0);
        }
    }

    #[test]
    fn log_normal_median_near_exp_mu() {
        let mut r = Rng64::new(21);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.next_log_normal(1.0, 0.3)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut base = Rng64::new(42);
        let mut c1 = base.fork(0);
        let mut c2 = base.fork(1);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn for_cases_draws_the_same_forked_streams_every_run() {
        let mut first = Vec::new();
        for_cases(9, 5, |rng| first.push(rng.next_u64()));
        let mut again = Vec::new();
        for_cases(9, 5, |rng| again.push(rng.next_u64()));
        assert_eq!(first, again);
        let want: Vec<u64> = (0..5).map(|c| Rng64::new(9).fork(c).next_u64()).collect();
        assert_eq!(first, want);
    }

    #[test]
    fn fnv1a_matches_known_answers() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mutate_edits_bytes_and_swaps_in_tokens() {
        let text = b"{\"a\": [1.5, 2], \"b\": \"x\"}".to_vec();
        let (mut changed, mut swapped) = (0, 0);
        for_cases(0x3a7e, 200, |rng| {
            let mut bytes = text.clone();
            mutate(rng, &mut bytes, &["1e400"]);
            changed += usize::from(bytes != text);
            swapped += usize::from(bytes.windows(5).any(|w| w == b"1e400"));
        });
        assert!(
            changed > 150 && swapped > 20,
            "{changed} changed, {swapped} swapped"
        );
        // An empty input can only grow a token.
        let mut empty = Vec::new();
        for_cases(0x3a7f, 50, |rng| mutate(rng, &mut empty, &["x"]));
        assert!(empty.iter().all(|&b| b == b'x'));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng64::new(4);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
