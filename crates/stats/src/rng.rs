//! Deterministic pseudo-random number generation.
//!
//! The LoadGen's reproducibility guarantees rest on a fixed seed triple
//! (Section IV-A of the paper: "the traffic pattern is predetermined by the
//! pseudorandom-number-generator seed"). To make runs bit-reproducible across
//! toolchain and dependency upgrades, this module implements its own
//! generator — xoshiro256++ — rather than relying on an external crate's
//! unstable stream. The workspace has no external RNG dependency at all;
//! every randomized test in the repository draws from this generator so its
//! cases are replayable from a printed seed.

/// A seedable 64-bit PRNG (xoshiro256++).
///
/// The stream produced by a given seed is stable for the lifetime of this
/// repository; LoadGen logs record the seeds so any run can be replayed.
///
/// # Examples
///
/// ```
/// use mlperf_stats::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The full 256-bit internal state is expanded from the seed with
    /// SplitMix64, per the xoshiro authors' recommendation, so that even
    /// adjacent seeds yield decorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next(), sm.next(), sm.next(), sm.next()],
        }
    }

    /// The full 256-bit internal state, for checkpointing.
    ///
    /// Together with [`Rng64::from_state`] this lets a crash-safe run
    /// journal freeze a generator mid-stream and resume it bit-exactly:
    /// `from_state(state())` continues the same sequence the original
    /// would have produced.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`Rng64::state`].
    ///
    /// The all-zero state is a fixed point of xoshiro256++ (the stream
    /// would be constant zero); it cannot come from [`Rng64::state`], so
    /// it is mapped to the seed-0 expansion instead of being trusted.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self::new(0);
        }
        Self { s }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Used to split one user-facing seed into the LoadGen's three logical
    /// streams (sample indices, schedule, accuracy-log sampling) without the
    /// streams overlapping.
    pub fn derive(&self, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut sm = SplitMix64::new(h ^ self.s[0] ^ self.s[2].rotate_left(17));
        Self {
            s: [sm.next(), sm.next(), sm.next(), sm.next()],
        }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws `count` sample indices uniformly **with replacement** from
    /// `[0, population)` — the LoadGen's sampling rule, which is what makes
    /// duplicate-sample caching detectable (Section V-B).
    ///
    /// # Panics
    ///
    /// Panics if `population == 0`.
    pub fn sample_with_replacement(&mut self, population: usize, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.next_index(population)).collect()
    }
}

/// SplitMix64: used only for state expansion and seed derivation.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        out
    }
}

/// SplitMix64's state increment (the odd integer nearest 2^64 / φ).
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One round of SplitMix64: the output the generator seeded with `x` gives
/// first. Enough avalanche to decorrelate adjacent inputs (query ids, frame
/// indices) before they seed an [`Rng64`] or become an id themselves.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The LoadGen's three decoupled seed streams (Section IV-B).
///
/// Mirrors the seed triple of the reference LoadGen configuration: one stream
/// picks the sample indices composing each query, one drives the arrival
/// schedule (Poisson draws in the server scenario), and one selects which
/// responses get logged for the accuracy-verification audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedTriple {
    /// Seed for the sample-index stream.
    pub qsl_seed: u64,
    /// Seed for the arrival-schedule stream.
    pub schedule_seed: u64,
    /// Seed for the accuracy-log sampling stream.
    pub accuracy_seed: u64,
}

impl SeedTriple {
    /// The fixed seeds used for official v0.5 runs in this reproduction.
    pub const OFFICIAL: SeedTriple = SeedTriple {
        qsl_seed: 0x4d4c_5065_7266_0001,
        schedule_seed: 0x4d4c_5065_7266_0002,
        accuracy_seed: 0x4d4c_5065_7266_0003,
    };

    /// Builds a triple from a single master seed by stream derivation.
    pub fn from_master(seed: u64) -> Self {
        let root = Rng64::new(seed);
        let mut qsl = root.derive("qsl");
        let mut sched = root.derive("schedule");
        let mut acc = root.derive("accuracy");
        Self {
            qsl_seed: qsl.next_u64(),
            schedule_seed: sched.next_u64(),
            accuracy_seed: acc.next_u64(),
        }
    }

    /// Returns the alternate triple used by the alternate-random-seed audit
    /// (Section V-B): every stream is replaced, none shared with `self`.
    pub fn alternate(&self, round: u32) -> Self {
        let mix = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(round) + 1);
        Self {
            qsl_seed: self.qsl_seed.wrapping_add(mix).rotate_left(13) ^ 0xa5a5,
            schedule_seed: self.schedule_seed.wrapping_add(mix).rotate_left(29) ^ 0x5a5a,
            accuracy_seed: self.accuracy_seed.wrapping_add(mix).rotate_left(47) ^ 0x3c3c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_independent_of_parent_consumption() {
        let parent = Rng64::new(99);
        let child1 = parent.derive("x");
        let mut parent2 = Rng64::new(99);
        parent2.next_u64();
        // derive() is a pure function of the current state, so derive before
        // consuming differs from derive after consuming...
        let child2 = Rng64::new(99).derive("x");
        assert_eq!(child1, child2);
        // ...and distinct labels give distinct streams.
        let mut cx = Rng64::new(99).derive("x");
        let mut cy = Rng64::new(99).derive("y");
        assert_ne!(cx.next_u64(), cy.next_u64());
    }

    #[test]
    fn state_roundtrip_resumes_the_exact_stream() {
        let mut original = Rng64::new(42);
        for _ in 0..17 {
            original.next_u64();
        }
        let mut resumed = Rng64::from_state(original.state());
        for _ in 0..100 {
            assert_eq!(resumed.next_u64(), original.next_u64());
        }
    }

    #[test]
    fn zero_state_is_not_trusted() {
        let mut r = Rng64::from_state([0; 4]);
        // A raw all-zero xoshiro state would yield zeros forever.
        assert_ne!(r.next_u64() | r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Rng64::new(11);
        for bound in [1u64, 2, 3, 7, 100, 12345] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Rng64::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.next_index(10)] += 1;
        }
        for c in counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Rng64::new(0).next_below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(21);
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
    fn sampling_with_replacement_produces_duplicates_eventually() {
        let mut r = Rng64::new(8);
        let picks = r.sample_with_replacement(4, 64);
        assert_eq!(picks.len(), 64);
        let mut seen = [false; 4];
        for p in &picks {
            seen[*p] = true;
        }
        assert!(seen.iter().all(|s| *s), "64 draws from 4 should cover all");
    }

    #[test]
    fn seed_triple_alternate_changes_every_stream() {
        let t = SeedTriple::OFFICIAL;
        let a = t.alternate(0);
        assert_ne!(t.qsl_seed, a.qsl_seed);
        assert_ne!(t.schedule_seed, a.schedule_seed);
        assert_ne!(t.accuracy_seed, a.accuracy_seed);
        assert_ne!(t.alternate(0), t.alternate(1));
    }

    #[test]
    fn seed_triple_from_master_is_deterministic() {
        assert_eq!(SeedTriple::from_master(5), SeedTriple::from_master(5));
        assert_ne!(SeedTriple::from_master(5), SeedTriple::from_master(6));
    }

    #[test]
    fn next_bool_probability() {
        let mut r = Rng64::new(17);
        let hits = (0..100_000).filter(|_| r.next_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits={hits}");
    }
}
