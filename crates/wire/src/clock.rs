//! NTP-style clock-offset estimation between a client and a daemon.
//!
//! Each [`Message::ClockProbe`](crate::message::Message::ClockProbe) /
//! `ClockProbeAck` exchange yields the classic four timestamps: `t0` the
//! client's send time, `t1` the server's receive time, `t2` the server's
//! transmit time (all relative to each host's own run-start clock), and
//! `t3` the client's receive time. From those:
//!
//! ```text
//! offset = ((t1 - t0) + (t2 - t3)) / 2      server_clock - client_clock
//! rtt    = (t3 - t0) - (t2 - t1)            pure network round trip
//! ```
//!
//! The offset estimate is exact when the outbound and return delays are
//! equal, and off by at most `rtt / 2` however asymmetric the path is —
//! so the estimator keeps the *minimum-RTT* sample seen: its bound is the
//! tightest, and re-probing on every heartbeat can only shrink (never
//! widen) the error bar. That monotonicity is what lets a merged detail
//! log claim a single aligned time axis.

use std::sync::Mutex;

use mlperf_trace::sync::lock;

/// One completed four-timestamp probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// Client clock at probe send (ns).
    pub t0: u64,
    /// Server clock at probe receive (ns).
    pub t1: u64,
    /// Server clock at ack transmit (ns).
    pub t2: u64,
    /// Client clock at ack receive (ns).
    pub t3: u64,
}

impl ClockSample {
    /// Estimated `server_clock - client_clock` in nanoseconds.
    ///
    /// Computed in `i128` — the two clocks start at unrelated epochs, so
    /// the raw differences can exceed `i64` only if a host has been up
    /// for ~292 years; the final offset is clamped into `i64`.
    pub fn offset_ns(&self) -> i64 {
        let outbound = self.t1 as i128 - self.t0 as i128;
        let inbound = self.t2 as i128 - self.t3 as i128;
        let offset = (outbound + inbound) / 2;
        offset.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Network round-trip time in nanoseconds (server hold time removed).
    /// Saturates at 0 for nonsensical stamps instead of underflowing.
    pub fn rtt_ns(&self) -> u64 {
        let total = self.t3 as i128 - self.t0 as i128;
        let hold = self.t2 as i128 - self.t1 as i128;
        (total - hold).max(0) as u64
    }

    /// Worst-case error of [`ClockSample::offset_ns`]: half the RTT.
    pub fn error_bound_ns(&self) -> u64 {
        self.rtt_ns() / 2
    }
}

/// Keeps the best (minimum-RTT) probe seen so far.
///
/// Thread-safe: the wire reader observes acks while spans are being
/// aligned from other threads.
#[derive(Debug, Default)]
pub struct ClockEstimator {
    best: Mutex<Option<ClockSample>>,
}

impl ClockEstimator {
    /// An estimator with no samples yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one completed probe. Returns `true` when the sample improved
    /// (tightened) the estimate — i.e. it is the first sample or has a
    /// strictly smaller RTT than the current best.
    pub fn observe(&self, sample: ClockSample) -> bool {
        let mut best = lock(&self.best);
        match *best {
            Some(current) if sample.rtt_ns() >= current.rtt_ns() => false,
            _ => {
                *best = Some(sample);
                true
            }
        }
    }

    /// The current best sample, if any probe completed.
    pub fn best(&self) -> Option<ClockSample> {
        *lock(&self.best)
    }

    /// Estimated `server_clock - client_clock` in nanoseconds.
    pub fn offset_ns(&self) -> Option<i64> {
        self.best().map(|s| s.offset_ns())
    }

    /// Worst-case error of the current estimate (half the best RTT).
    /// Monotonically non-increasing across [`ClockEstimator::observe`]
    /// calls.
    pub fn error_bound_ns(&self) -> Option<u64> {
        self.best().map(|s| s.error_bound_ns())
    }

    /// Re-stamps a server-clock timestamp onto the client clock using the
    /// current offset estimate, clamping at zero (a server event can
    /// predate the client's run start by less than the estimate error).
    /// Returns `server_ts_ns` unchanged when no probe has completed.
    pub fn align_to_client(&self, server_ts_ns: u64) -> u64 {
        match self.offset_ns() {
            Some(offset) => {
                let aligned = server_ts_ns as i128 - offset as i128;
                aligned.clamp(0, u64::MAX as i128) as u64
            }
            None => server_ts_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_delay_recovers_the_exact_offset() {
        // Server clock runs 5 ms ahead; 200 µs each way.
        let offset = 5_000_000i64;
        let one_way = 200_000u64;
        let t0 = 1_000_000u64;
        let t1 = (t0 + one_way) as i64 + offset;
        let t2 = t1 + 50_000; // server hold time
        let t3 = (t2 - offset) as u64 + one_way;
        let s = ClockSample {
            t0,
            t1: t1 as u64,
            t2: t2 as u64,
            t3,
        };
        assert_eq!(s.offset_ns(), offset);
        assert_eq!(s.rtt_ns(), 2 * one_way);
        assert_eq!(s.error_bound_ns(), one_way);
    }

    #[test]
    fn asymmetric_delay_errs_by_at_most_half_the_rtt() {
        let offset = -3_000_000i64; // server clock behind
        let out = 900_000u64; // slow outbound
        let back = 100_000u64; // fast return
        let t0 = 10_000_000u64;
        let t1 = (t0 + out) as i64 + offset;
        let t2 = t1 + 10_000;
        let t3 = (t2 - offset) as u64 + back;
        let s = ClockSample {
            t0,
            t1: t1 as u64,
            t2: t2 as u64,
            t3,
        };
        let err = (s.offset_ns() - offset).unsigned_abs();
        assert!(
            err <= s.error_bound_ns(),
            "error {err} exceeds bound {}",
            s.error_bound_ns()
        );
        assert_eq!(s.rtt_ns(), out + back);
    }

    #[test]
    fn estimator_keeps_the_minimum_rtt_sample() {
        let est = ClockEstimator::new();
        let wide = ClockSample {
            t0: 0,
            t1: 600_000,
            t2: 610_000,
            t3: 1_010_000,
        };
        let tight = ClockSample {
            t0: 2_000_000,
            t1: 2_150_000,
            t2: 2_160_000,
            t3: 2_210_000,
        };
        assert!(est.observe(wide), "first sample always improves");
        let first_bound = est.error_bound_ns().unwrap();
        assert!(est.observe(tight), "smaller RTT improves");
        let second_bound = est.error_bound_ns().unwrap();
        assert!(second_bound < first_bound);
        assert!(!est.observe(wide), "a worse sample never regresses");
        assert_eq!(est.best(), Some(tight));
    }

    #[test]
    fn alignment_applies_and_clamps() {
        let est = ClockEstimator::new();
        assert_eq!(est.align_to_client(42), 42, "no estimate, no change");
        // Server 1 ms ahead of client.
        est.observe(ClockSample {
            t0: 0,
            t1: 1_000_000 + 5_000,
            t2: 1_000_000 + 6_000,
            t3: 11_000,
        });
        assert_eq!(est.offset_ns(), Some(1_000_000));
        assert_eq!(est.align_to_client(1_500_000), 500_000);
        assert_eq!(est.align_to_client(10), 0, "clamped at run start");
    }
}
