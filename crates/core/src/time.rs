//! Simulation time.
//!
//! All LoadGen timestamps and durations are [`Nanos`] — unsigned nanoseconds
//! from the start of the run. The same type serves as both instant and
//! duration (the benchmark never needs negative time, and saturating
//! subtraction makes misuse loud in tests rather than undefined).

use mlperf_trace::{FromJson, JsonError, JsonValue, ToJson};

/// A timestamp or duration in nanoseconds.
///
/// # Examples
///
/// ```
/// use mlperf_loadgen::time::Nanos;
///
/// let t = Nanos::from_millis(2) + Nanos::from_micros(500);
/// assert_eq!(t.as_nanos(), 2_500_000);
/// assert!((t.as_secs_f64() - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl ToJson for Nanos {
    fn to_json_value(&self) -> JsonValue {
        // Newtype transparency: a bare nanosecond count, as serde would emit.
        JsonValue::Int(i128::from(self.0))
    }
}

impl FromJson for Nanos {
    fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Nanos(value.as_u64()?))
    }
}

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);
    /// The farthest representable instant.
    pub(crate) const MAX: Nanos = Nanos(u64::MAX);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// From fractional seconds, rounding to the nearest nanosecond and
    /// clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies a duration by an integer count (saturating, unlike a
    /// `std::ops::Mul` impl, which is why this stays an inherent method).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, count: u64) -> Nanos {
        Nanos(self.0.saturating_mul(count))
    }

    /// Converts to [`std::time::Duration`].
    pub fn to_duration(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl std::ops::Add for Nanos {
    type Output = Nanos;

    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<std::time::Duration> for Nanos {
    fn from(d: std::time::Duration) -> Self {
        Nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_micros(4).as_nanos(), 4_000);
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_millis(5);
        let b = Nanos::from_millis(3);
        assert_eq!(a + b, Nanos::from_millis(8));
        assert_eq!(a.saturating_sub(b), Nanos::from_millis(2));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.mul(3), Nanos::from_millis(15));
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos::from_millis(8));
    }

    #[test]
    fn ordering() {
        assert!(Nanos::from_millis(1) < Nanos::from_millis(2));
        assert!(Nanos::MAX > Nanos::from_secs(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn duration_roundtrip() {
        let n = Nanos::from_millis(7);
        assert_eq!(Nanos::from(n.to_duration()), n);
    }

    #[test]
    fn json_roundtrip() {
        let n = Nanos::from_micros(1234);
        let json = n.to_json_string();
        assert_eq!(json, "1234000");
        assert_eq!(Nanos::from_json_str(&json).unwrap(), n);
    }
}
