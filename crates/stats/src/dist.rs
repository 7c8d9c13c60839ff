//! Distribution sampling used by the benchmark.
//!
//! * `Exponential` — inter-arrival gaps of the server scenario's Poisson
//!   query process (Table II: "Poisson distribution").
//! * [`LogNormal`] — latency jitter in the simulated devices.
//! * [`PoissonProcess`] — an iterator of absolute arrival timestamps.

use crate::rng::Rng64;

/// Exponential distribution with rate `lambda` (events per unit time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonPositiveRate`] if `lambda` is not finite and
    /// positive.
    pub(crate) fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::NonPositiveRate(lambda));
        }
        Ok(Self { lambda })
    }

    /// Draws one sample (mean `1 / lambda`).
    pub(crate) fn sample(&self, rng: &mut Rng64) -> f64 {
        // Inverse-CDF; 1 - u avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu`/`sigma`. Its median is `exp(mu)`.
///
/// Device jitter is modeled as multiplicative log-normal noise, the common
/// empirical shape for service-time variation on real inference systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NegativeStdDev`] if `sigma` is negative or either
    /// parameter is non-finite.
    pub(crate) fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(DistError::NegativeStdDev(sigma));
        }
        Ok(Self { mu, sigma })
    }

    /// A log-normal whose median is 1, convenient as a jitter multiplier.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogNormal::new`].
    pub fn jitter(sigma: f64) -> Result<Self, DistError> {
        Self::new(0.0, sigma)
    }

    /// Draws one sample (always positive).
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Draws a standard normal variate.
fn standard_normal(rng: &mut Rng64) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// An iterator of absolute arrival timestamps of a homogeneous Poisson
/// process, in seconds from time zero.
///
/// This is exactly how the LoadGen materializes the server-scenario schedule:
/// the whole arrival trace is a deterministic function of the schedule seed.
///
/// # Examples
///
/// ```
/// use mlperf_stats::{dist::PoissonProcess, Rng64};
///
/// let arrivals: Vec<f64> = PoissonProcess::new(10.0, Rng64::new(1)).unwrap().take(3).collect();
/// assert!(arrivals[0] >= 0.0 && arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    exp: Exponential,
    rng: Rng64,
    now: f64,
}

impl PoissonProcess {
    /// Creates a process with `qps` expected arrivals per second.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonPositiveRate`] if `qps` is not positive.
    pub fn new(qps: f64, rng: Rng64) -> Result<Self, DistError> {
        Ok(Self {
            exp: Exponential::new(qps)?,
            rng,
            now: 0.0,
        })
    }

    /// Freezes the process for a checkpoint: the generator state and the
    /// absolute time of the last arrival yielded.
    pub fn state(&self) -> ([u64; 4], f64) {
        (self.rng.state(), self.now)
    }

    /// Rebuilds a process mid-stream from a [`PoissonProcess::state`]
    /// capture. The resumed iterator yields exactly the arrivals the
    /// original would have yielded next.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonPositiveRate`] if `qps` is not positive.
    pub fn resume(qps: f64, rng_state: [u64; 4], now: f64) -> Result<Self, DistError> {
        Ok(Self {
            exp: Exponential::new(qps)?,
            rng: Rng64::from_state(rng_state),
            now,
        })
    }
}

impl Iterator for PoissonProcess {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.now += self.exp.sample(&mut self.rng);
        Some(self.now)
    }
}

/// Errors from distribution construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistError {
    /// A rate parameter was zero, negative, or non-finite.
    NonPositiveRate(f64),
    /// A standard deviation was negative or a parameter non-finite.
    NegativeStdDev(f64),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NonPositiveRate(r) => write!(f, "rate must be finite and positive, got {r}"),
            DistError::NegativeStdDev(s) => {
                write!(
                    f,
                    "standard deviation must be finite and non-negative, got {s}"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let exp = Exponential::new(4.0).unwrap();
        let mut rng = Rng64::new(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn lognormal_is_positive_with_unit_median() {
        let d = LogNormal::jitter(0.3).unwrap();
        let mut rng = Rng64::new(3);
        let mut samples: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|s| *s > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[25_000];
        assert!((median - 1.0).abs() < 0.02, "median={median}");
    }

    #[test]
    fn poisson_process_counts_events() {
        // At 100 qps over 50 simulated seconds we expect ~5000 arrivals.
        let p = PoissonProcess::new(100.0, Rng64::new(4)).unwrap();
        let events = p.take_while(|t| *t < 50.0).count();
        assert!((4_600..5_400).contains(&events), "events={events}");
    }

    #[test]
    fn poisson_process_resumes_from_state() {
        let mut original = PoissonProcess::new(100.0, Rng64::new(9)).unwrap();
        for _ in 0..500 {
            original.next();
        }
        let (rng_state, now) = original.state();
        let mut resumed = PoissonProcess::resume(100.0, rng_state, now).unwrap();
        for _ in 0..500 {
            assert_eq!(resumed.next(), original.next());
        }
    }

    #[test]
    fn poisson_process_is_monotone() {
        let p = PoissonProcess::new(10.0, Rng64::new(5)).unwrap();
        let times: Vec<f64> = p.take(1000).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            DistError::NonPositiveRate(0.0),
            DistError::NegativeStdDev(-1.0),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
