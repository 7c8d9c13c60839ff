//! Property-style tests for the statistical substrate.
//!
//! The workspace is dependency-free, so instead of a property-testing
//! framework these run seeded `Rng64` case loops: every failure message
//! carries the case seed, making any counterexample replayable.

use mlperf_stats::confidence::{
    inverse_normal_cdf, margin_for, standard_normal_cdf, Confidence, QueryCountPlan,
    QUERY_COUNT_GRANULE,
};
use mlperf_stats::{Percentile, Rng64};

const CASES: u64 = 64;

/// Naive reference implementation of nearest-rank percentile.
fn naive_percentile(p: f64, data: &[u64]) -> u64 {
    let mut v = data.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn random_data(rng: &mut Rng64, max_len: usize, max_value: u64) -> Vec<u64> {
    let len = 1 + rng.next_index(max_len);
    (0..len).map(|_| rng.next_below(max_value)).collect()
}

#[test]
fn percentile_matches_naive() {
    let mut rng = Rng64::new(0x5057_0001);
    for case in 0..CASES {
        let data = random_data(&mut rng, 500, 1_000_000);
        let p = 1 + rng.next_below(99) as u32;
        let pct = Percentile::new(f64::from(p)).unwrap();
        assert_eq!(
            pct.of(&data),
            naive_percentile(f64::from(p), &data),
            "case {case}: p={p} len={}",
            data.len()
        );
    }
}

#[test]
fn percentile_is_monotone_in_p() {
    let mut rng = Rng64::new(0x5057_0002);
    for case in 0..CASES {
        let data = random_data(&mut rng, 200, 1_000_000);
        let lo = 1 + rng.next_below(49) as u32;
        let hi = 50 + rng.next_below(50) as u32;
        let plo = Percentile::new(f64::from(lo)).unwrap().of(&data);
        let phi = Percentile::new(f64::from(hi)).unwrap().of(&data);
        assert!(plo <= phi, "case {case}: p{lo}={plo} > p{hi}={phi}");
    }
}

#[test]
fn percentile_is_an_element() {
    let mut rng = Rng64::new(0x5057_0003);
    for case in 0..CASES {
        let data = random_data(&mut rng, 100, 1000);
        let p = 1 + rng.next_below(99) as u32;
        let v = Percentile::new(f64::from(p)).unwrap().of(&data);
        assert!(data.contains(&v), "case {case}: p{p} value {v} not in data");
    }
}

#[test]
fn query_count_monotone_in_tail() {
    let mut rng = Rng64::new(0x5057_0004);
    for case in 0..CASES {
        // Stricter tails (closer to 1) always need more queries under Eq. 1+2.
        let tail_a = 0.5 + rng.next_f64() * 0.48;
        let delta = 0.001 + rng.next_f64() * 0.018;
        let a = QueryCountPlan::new(tail_a, Confidence::C99, margin_for(tail_a)).unwrap();
        let tail_b = tail_a + delta;
        let b = QueryCountPlan::new(tail_b, Confidence::C99, margin_for(tail_b)).unwrap();
        assert!(
            a.raw_queries() <= b.raw_queries(),
            "case {case}: tail {} -> {} queries, tail {} -> {}",
            tail_a,
            a.raw_queries(),
            tail_b,
            b.raw_queries()
        );
    }
}

#[test]
fn query_count_monotone_in_confidence() {
    let mut rng = Rng64::new(0x5057_0005);
    for case in 0..CASES {
        let tail = 0.5 + rng.next_f64() * 0.495;
        let c_lo = 0.5 + rng.next_f64() * 0.4;
        let bump = 0.01 + rng.next_f64() * 0.08;
        let m = margin_for(tail);
        let lo = QueryCountPlan::new(tail, Confidence::new(c_lo).unwrap(), m).unwrap();
        let hi = QueryCountPlan::new(tail, Confidence::new(c_lo + bump).unwrap(), m).unwrap();
        assert!(
            lo.raw_queries() <= hi.raw_queries(),
            "case {case}: tail={tail} c_lo={c_lo} bump={bump}"
        );
    }
}

#[test]
fn rounding_invariants() {
    let mut rng = Rng64::new(0x5057_0006);
    for case in 0..CASES {
        let tail = 0.5 + rng.next_f64() * 0.495;
        let plan = QueryCountPlan::new(tail, Confidence::C99, margin_for(tail)).unwrap();
        let rounded = plan.rounded_queries();
        assert_eq!(rounded % QUERY_COUNT_GRANULE, 0, "case {case}: tail={tail}");
        assert!(rounded >= plan.raw_queries(), "case {case}: tail={tail}");
        assert!(
            rounded - plan.raw_queries() < QUERY_COUNT_GRANULE,
            "case {case}: tail={tail}"
        );
    }
}

#[test]
fn inverse_cdf_roundtrip() {
    let mut rng = Rng64::new(0x5057_0007);
    for case in 0..CASES {
        let p = 0.0001 + rng.next_f64() * 0.9998;
        let x = inverse_normal_cdf(p);
        assert!(
            (standard_normal_cdf(x) - p).abs() < 1e-9,
            "case {case}: p={p} x={x}"
        );
    }
}

#[test]
fn inverse_cdf_monotone() {
    let mut rng = Rng64::new(0x5057_0008);
    for case in 0..CASES {
        let p = 0.001 + rng.next_f64() * 0.989;
        let d = 0.0001 + rng.next_f64() * 0.0089;
        assert!(
            inverse_normal_cdf(p) < inverse_normal_cdf(p + d),
            "case {case}: p={p} d={d}"
        );
    }
}

#[test]
fn rng_streams_deterministic() {
    let mut seeder = Rng64::new(0x5057_0009);
    for case in 0..CASES {
        let seed = seeder.next_u64();
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}: seed={seed}");
        }
    }
}

#[test]
fn rng_bounds_hold() {
    let mut seeder = Rng64::new(0x5057_000a);
    for case in 0..CASES {
        let seed = seeder.next_u64();
        let bound = 1 + seeder.next_below(1_000_000);
        let mut r = Rng64::new(seed);
        for _ in 0..64 {
            assert!(
                r.next_below(bound) < bound,
                "case {case}: seed={seed} bound={bound}"
            );
        }
    }
}

#[test]
fn sample_with_replacement_in_range() {
    let mut seeder = Rng64::new(0x5057_000b);
    for case in 0..CASES {
        let seed = seeder.next_u64();
        let pop = 1 + seeder.next_index(5000);
        let count = seeder.next_index(256);
        let mut r = Rng64::new(seed);
        for idx in r.sample_with_replacement(pop, count) {
            assert!(idx < pop, "case {case}: seed={seed} pop={pop} idx={idx}");
        }
    }
}
