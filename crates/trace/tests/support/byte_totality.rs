//! Test support: the totality check every declared byte layout gets,
//! shared through `#[path]` by each crate's `layout_totality.rs` (which
//! also includes `counting_alloc.rs`, installing the allocator it reads).
//!
//! For each value of a record, [`assert_total`] checks that:
//!
//! * its bytes decode to exactly those bytes again;
//! * every truncation is an error, and so is one trailing byte;
//! * a count lie at every offset (a `u32` just too large for what is
//!   left) and a seeded sweep of bit flips, inserted and deleted bytes
//!   each give an error or the value the mutated bytes spell (they
//!   re-encode to themselves), never a panic, and never an allocation
//!   larger than a few times the input.
//!
//! [`layout_totality!`] declares one such test per record.

use crate::counting_alloc::largest_alloc_during;
use mlperf_stats::rng::Rng64;
use mlperf_trace::bytes::{ByteError, ByteLayout};

/// Largest single allocation a decode may make for `len` input bytes: a
/// decoded item is at most ~5× its least encoding (a 9-byte completion
/// sample is 40 bytes in memory).
fn alloc_ceiling(len: usize) -> usize {
    8 * len + 64
}

/// `n` values of a record drawn from one seed: what each test feeds
/// [`assert_total`].
pub fn draw<T>(n: usize, seed: u64, make: fn(&mut Rng64) -> T) -> Vec<T> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| make(&mut rng)).collect()
}

/// Decodes `bytes` under the allocation ceiling; an accepted value must
/// re-encode to exactly `bytes`.
fn decode_checked<T: ByteLayout>(what: &str, bytes: &[u8], mutation: &str) -> Option<ByteError> {
    let (decoded, largest) = largest_alloc_during(|| T::from_bytes(bytes));
    assert!(
        largest <= alloc_ceiling(bytes.len()),
        "{what}, {mutation}: {} bytes made the decoder allocate {largest}",
        bytes.len()
    );
    match decoded {
        Ok(value) => {
            assert_eq!(
                value.to_bytes(),
                bytes,
                "{what}, {mutation}: decoded non-canonically"
            );
            None
        }
        Err(e) => Some(e),
    }
}

/// Holds every value of `values` to the totality contract above.
pub fn assert_total<T: ByteLayout>(what: &str, values: &[T], seed: u64) {
    assert!(!values.is_empty(), "{what}: no values to check");
    let mut rng = Rng64::new(seed);
    for (i, value) in values.iter().enumerate() {
        let what = format!("{what} {i}");
        let bytes = value.to_bytes();
        assert!(
            !bytes.is_empty() && bytes.len() >= T::MIN_BYTES,
            "{what}: shorter than MIN_BYTES or empty"
        );
        assert_eq!(decode_checked::<T>(&what, &bytes, "as encoded"), None);
        for cut in 0..bytes.len() {
            let mutation = format!("cut to {cut} bytes");
            assert!(
                decode_checked::<T>(&what, &bytes[..cut], &mutation).is_some(),
                "{mutation}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            decode_checked::<T>(&what, &longer, "one trailing byte"),
            Some(ByteError::Trailing(1))
        );
        let len = bytes.len() as u64;
        for at in 0..bytes.len().saturating_sub(3) {
            let lie = (len + 1 + rng.next_below(15 * len)) as u32;
            let mut lied = bytes.clone();
            lied[at..at + 4].copy_from_slice(&lie.to_be_bytes());
            decode_checked::<T>(&what, &lied, &format!("count {lie} at {at}"));
        }
        for round in 0..64 {
            let mut mutated = bytes.clone();
            let at = rng.next_below(len) as usize;
            match round % 3 {
                0 => mutated[at] ^= 1 << rng.next_below(8),
                1 => mutated.insert(at, rng.next_u64() as u8),
                _ => {
                    mutated.remove(at);
                }
            }
            decode_checked::<T>(&what, &mutated, &format!("mutation {round} at {at}"));
        }
    }
}

/// One `#[test]` per record: `name: Type = values_expression;`, seeded by
/// the line it is declared on.
#[macro_export]
macro_rules! layout_totality {
    ($($name:ident: $ty:ty = $values:expr;)+) => {$(
        #[test]
        fn $name() {
            let values: Vec<$ty> = $values;
            $crate::byte_totality::assert_total(stringify!($ty), &values, u64::from(line!()));
        }
    )+};
}
